open Util

let page = Vmem.Addr.page_size

let roundtrip_through_swap () =
  with_fastswap ~local_mem:(256 * 1024) (fun _eng k ->
      let n = 256 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Fastswap.Kernel.write_u64 k ~core:0
          (Int64.add a (Int64.of_int (i * page)))
          (Int64.of_int (i * 3))
      done;
      for i = 0 to n - 1 do
        check_i64 "value survives swap" (Int64.of_int (i * 3))
          (Fastswap.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_bool "evicted" true
        (Sim.Stats.get (Fastswap.Kernel.stats k) "evictions" > 0))

let readahead_generates_minor_faults () =
  with_fastswap ~local_mem:(256 * 1024) (fun _eng k ->
      let n = 512 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Fastswap.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore
          (Fastswap.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      let st = Fastswap.Kernel.stats k in
      let major = Sim.Stats.get st "major_faults" in
      let minor = Sim.Stats.get st "minor_faults" in
      (* Table 1: cluster readahead makes ~87.5% of swap faults minor. *)
      check_bool
        (Printf.sprintf "minor (%d) >> major (%d)" minor major)
        true
        (minor > 5 * major);
      check_bool "majors exist" true (major > 0))

let no_readahead_all_major () =
  with_fastswap ~local_mem:(256 * 1024) ~readahead:false (fun _eng k ->
      let n = 256 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Fastswap.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore
          (Fastswap.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_int "no minors without readahead" 0
        (Sim.Stats.get (Fastswap.Kernel.stats k) "minor_faults"))

let major_fault_slower_than_dilos () =
  let fault_mean sys =
    match sys with
    | `Fastswap ->
        with_fastswap ~local_mem:(128 * 1024) ~readahead:false (fun _eng k ->
            let n = 128 in
            let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
            for i = 0 to n - 1 do
              Fastswap.Kernel.write_u64 k ~core:0
                (Int64.add a (Int64.of_int (i * page)))
                1L
            done;
            for i = 0 to n - 1 do
              ignore
                (Fastswap.Kernel.read_u64 k ~core:0
                   (Int64.add a (Int64.of_int (i * page))))
            done;
            Sim.Histogram.mean
              (Sim.Stats.histogram (Fastswap.Kernel.stats k) "fault_ns"))
    | `Dilos ->
        with_dilos ~local_mem:(128 * 1024) ~prefetch:Dilos.Kernel.No_prefetch
          (fun _eng k ->
            let n = 128 in
            let a = Dilos.Kernel.mmap k ~len:(n * page) ~ddc:true () in
            for i = 0 to n - 1 do
              Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
            done;
            for i = 0 to n - 1 do
              ignore
                (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
            done;
            Sim.Histogram.mean (Sim.Stats.histogram (Dilos.Kernel.stats k) "fault_ns"))
  in
  let fs = fault_mean `Fastswap and dl = fault_mean `Dilos in
  (* Fig. 6: DiLOS cuts fault latency roughly in half. *)
  check_bool
    (Printf.sprintf "dilos %.0fns well below fastswap %.0fns" dl fs)
    true
    (dl < 0.75 *. fs)

let swap_cache_drains () =
  with_fastswap ~local_mem:(512 * 1024) (fun eng k ->
      let n = 64 in
      let a = Fastswap.Kernel.mmap k ~len:(n * page) () in
      for i = 0 to n - 1 do
        Fastswap.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      (* Sequential read consumes readahead entries, so the cache stays
         small. *)
      for i = 0 to n - 1 do
        ignore
          (Fastswap.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      check_bool "cache bounded" true (Fastswap.Kernel.swap_cache_size k < 16))

(* Whatever the insertion and removal history, [iter] visits keys in
   ascending order, and skips a key an earlier callback removed. *)
let swap_cache_iter_ascending () =
  let c = Fastswap.Swap_cache.create () in
  let rng = Sim.Rng.create 11 in
  let live = Hashtbl.create 64 in
  for _ = 1 to 400 do
    let vpn = Sim.Rng.int rng 300 in
    if Fastswap.Swap_cache.mem c vpn then begin
      Fastswap.Swap_cache.remove c vpn;
      Hashtbl.remove live vpn
    end
    else begin
      Fastswap.Swap_cache.insert c vpn { Fastswap.Swap_cache.frame = vpn; io_inflight = false };
      Hashtbl.replace live vpn ()
    end
  done;
  let expect = List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) live []) in
  let seen = ref [] in
  Fastswap.Swap_cache.iter c (fun vpn e ->
      check_int "entry" vpn e.Fastswap.Swap_cache.frame;
      seen := vpn :: !seen);
  Alcotest.(check (list int)) "ascending" expect (List.rev !seen);
  let seen = ref [] in
  Fastswap.Swap_cache.iter c (fun vpn _ ->
      seen := vpn :: !seen;
      Fastswap.Swap_cache.remove c (vpn + 1));
  let seen = List.rev !seen in
  check_bool "still ascending" true (List.sort Int.compare seen = seen);
  check_bool "removed keys skipped" true
    (List.for_all (fun v -> not (List.mem (v + 1) seen)) seen)

let heap_reuse () =
  with_fastswap (fun _eng k ->
      let a = Fastswap.Kernel.malloc k ~core:0 1000 in
      Fastswap.Kernel.write_u64 k ~core:0 a 1L;
      Fastswap.Kernel.free k ~core:0 a;
      let b = Fastswap.Kernel.malloc k ~core:0 1000 in
      check_i64 "mapping reused" a b)

let segfault () =
  with_fastswap (fun _eng k ->
      try
        ignore (Fastswap.Kernel.read_u64 k ~core:0 0xBAD000L);
        Alcotest.fail "expected segfault"
      with Dilos.Cpu.Segmentation_fault _ -> ())

let suite =
  [
    quick "roundtrip through swap" roundtrip_through_swap;
    quick "readahead generates minor faults" readahead_generates_minor_faults;
    quick "no readahead -> all major" no_readahead_all_major;
    quick "major fault slower than dilos" major_fault_slower_than_dilos;
    quick "swap cache drains" swap_cache_drains;
    quick "swap cache iter ascending" swap_cache_iter_ascending;
    quick "heap reuse" heap_reuse;
    quick "segfault" segfault;
  ]
