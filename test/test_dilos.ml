open Util

let page = Vmem.Addr.page_size

(* ------------------------------------------------------------------ *)
(* Kernel data path *)

let roundtrip_within_cache () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.mmap k ~len:(16 * page) ~ddc:true () in
      Dilos.Kernel.write_u64 k ~core:0 a 0xCAFEBABEL;
      Dilos.Kernel.write_u8 k ~core:0 (Int64.add a 100L) 42;
      check_i64 "u64" 0xCAFEBABEL (Dilos.Kernel.read_u64 k ~core:0 a);
      check_int "u8" 42 (Dilos.Kernel.read_u8 k ~core:0 (Int64.add a 100L)))

let roundtrip_through_eviction () =
  (* Working set 4x the local cache: every page is evicted and fetched
     back, so this exercises write-back, remote storage and refetch
     end to end. *)
  with_dilos ~local_mem:(256 * 1024) ~prefetch:Dilos.Kernel.Readahead
    (fun _eng k ->
      let n_pages = 256 in
      let a = Dilos.Kernel.mmap k ~len:(n_pages * page) ~ddc:true () in
      for i = 0 to n_pages - 1 do
        let addr = Int64.add a (Int64.of_int (i * page)) in
        Dilos.Kernel.write_u64 k ~core:0 addr (Int64.of_int (i * 7));
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add addr 4088L)
          (Int64.of_int (i * 13))
      done;
      for i = 0 to n_pages - 1 do
        let addr = Int64.add a (Int64.of_int (i * page)) in
        check_i64 "head survives eviction" (Int64.of_int (i * 7))
          (Dilos.Kernel.read_u64 k ~core:0 addr);
        check_i64 "tail survives eviction" (Int64.of_int (i * 13))
          (Dilos.Kernel.read_u64 k ~core:0 (Int64.add addr 4088L))
      done;
      check_bool "evictions happened" true
        (Sim.Stats.get (Dilos.Kernel.stats k) "evictions" > 0);
      check_bool "major faults happened" true
        (Sim.Stats.get (Dilos.Kernel.stats k) "major_faults" > 0))

let rewrite_after_writeback () =
  (* A page cleaned by the background cleaner and then re-written must
     not lose the second write. *)
  with_dilos ~local_mem:(256 * 1024) (fun eng k ->
      let a = Dilos.Kernel.mmap k ~len:page ~ddc:true () in
      Dilos.Kernel.write_u64 k ~core:0 a 1L;
      (* Give the cleaner time to write the page back. *)
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      Dilos.Kernel.write_u64 k ~core:0 a 2L;
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      (* Force it out and back. *)
      let filler = Dilos.Kernel.mmap k ~len:(80 * page) ~ddc:true () in
      for i = 0 to 79 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add filler (Int64.of_int (i * page))) 0L
      done;
      check_i64 "second write survives" 2L (Dilos.Kernel.read_u64 k ~core:0 a))

let segfault_on_unmapped () =
  with_dilos (fun _eng k ->
      try
        ignore (Dilos.Kernel.read_u64 k ~core:0 0xDEAD000L);
        Alcotest.fail "expected segfault"
      with Dilos.Kernel.Segmentation_fault _ -> ())

let zero_fill_reads_zero () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.mmap k ~len:page ~ddc:true () in
      check_i64 "fresh page zero" 0L (Dilos.Kernel.read_u64 k ~core:0 a);
      check_int "zero-fill fault counted" 1
        (Sim.Stats.get (Dilos.Kernel.stats k) "zero_fill_faults"))

let bulk_roundtrip_cross_page () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.mmap k ~len:(3 * page) ~ddc:true () in
      let src = Bytes.init 6000 (fun i -> Char.chr (i land 0xFF)) in
      Dilos.Kernel.write_bytes k ~core:0 (Int64.add a 100L) src 0 6000;
      let dst = Bytes.create 6000 in
      Dilos.Kernel.read_bytes k ~core:0 (Int64.add a 100L) dst 0 6000;
      Alcotest.(check bytes) "bulk crosses pages" src dst)


let fault_latency_reasonable () =
  (* Major fault should land near the calibrated ~3.4us, far below
     Fastswap's ~6us. *)
  with_dilos ~local_mem:(128 * 1024) ~prefetch:Dilos.Kernel.No_prefetch
    (fun _eng k ->
      let n = 128 in
      let a = Dilos.Kernel.mmap k ~len:(n * page) ~ddc:true () in
      for i = 0 to n - 1 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      let h = Sim.Stats.histogram (Dilos.Kernel.stats k) "fault_ns" in
      check_bool "some faults" true (Sim.Histogram.count h > 20);
      let mean_us = Sim.Histogram.mean h /. 1000. in
      check_bool
        (Printf.sprintf "fault mean %.2fus in [2.8, 4.5]" mean_us)
        true
        (mean_us > 2.8 && mean_us < 4.5))

let prefetch_reduces_major_faults () =
  let majors prefetch =
    with_dilos ~local_mem:(1024 * 1024) ~prefetch (fun _eng k ->
        let n = 1024 in
        let a = Dilos.Kernel.mmap k ~len:(n * page) ~ddc:true () in
        (* Populate, evict, then sequentially read. *)
        for i = 0 to n - 1 do
          Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
        done;
        for i = 0 to n - 1 do
          ignore
            (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
        done;
        Sim.Stats.get (Dilos.Kernel.stats k) "major_faults")
  in
  let none = majors Dilos.Kernel.No_prefetch in
  let ra = majors Dilos.Kernel.Readahead in
  let trend = majors Dilos.Kernel.Trend_based in
  check_bool
    (Printf.sprintf "readahead majors %d << no-prefetch %d" ra none)
    true
    (ra * 3 < none);
  check_bool
    (Printf.sprintf "trend majors %d << no-prefetch %d" trend none)
    true
    (trend * 3 < none)

let prefetched_pages_wait_not_refetch () =
  with_dilos ~local_mem:(128 * 1024) ~prefetch:Dilos.Kernel.Readahead
    (fun _eng k ->
      let n = 256 in
      let a = Dilos.Kernel.mmap k ~len:(n * page) ~ddc:true () in
      for i = 0 to n - 1 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      for i = 0 to n - 1 do
        ignore (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))))
      done;
      let st = Dilos.Kernel.stats k in
      let fetches = Sim.Stats.get st "rdma_reads" in
      let majors = Sim.Stats.get st "major_faults" in
      let prefetches = Sim.Stats.get st "prefetch_issued" in
      (* No page should be fetched twice within one pass. *)
      check_bool
        (Printf.sprintf "fetches %d <= majors %d + prefetches %d" fetches majors
           prefetches)
        true
        (fetches <= majors + prefetches))

let multicore_shared_fetch () =
  (* Two cores faulting on the same page: one fetch, one wait. *)
  with_dilos ~cores:2 ~local_mem:(256 * 1024) ~prefetch:Dilos.Kernel.No_prefetch
    (fun eng k ->
      let a = Dilos.Kernel.mmap k ~len:(200 * page) ~ddc:true () in
      (* Populate and force eviction of the first page. *)
      for i = 0 to 199 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 5L
      done;
      Dilos.Kernel.flush k ~core:0;
      check_bool "page 0 evicted" true (Dilos.Kernel.page_tag k a <> Vmem.Pte.Local);
      let done_count = ref 0 in
      for core = 0 to 1 do
        Sim.Engine.spawn eng (fun () ->
            check_i64 "value" 5L (Dilos.Kernel.read_u64 k ~core a);
            incr done_count)
      done;
      Sim.Condvar.wait_for (Sim.Condvar.create eng) (fun () -> true);
      (* Let both finish. *)
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      check_int "both cores read" 2 !done_count;
      check_int "exactly one extra fetch wait" 1
        (Sim.Stats.get (Dilos.Kernel.stats k) "fetch_waits"))

let munmap_frees_frames () =
  with_dilos (fun _eng k ->
      let free0 = Dilos.Kernel.free_frames k in
      let a = Dilos.Kernel.mmap k ~len:(8 * page) ~ddc:true () in
      for i = 0 to 7 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (i * page))) 1L
      done;
      Dilos.Kernel.flush k ~core:0;
      check_int "8 frames used" (free0 - 8) (Dilos.Kernel.free_frames k);
      Dilos.Kernel.munmap k a;
      check_int "frames back" free0 (Dilos.Kernel.free_frames k))

(* ------------------------------------------------------------------ *)
(* ddc allocator *)

let alloc_roundtrip () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.ddc_malloc k ~core:0 100 in
      let b = Dilos.Kernel.ddc_malloc k ~core:0 100 in
      check_bool "distinct" true (a <> b);
      Dilos.Kernel.write_u64 k ~core:0 a 11L;
      Dilos.Kernel.write_u64 k ~core:0 b 22L;
      check_i64 "a" 11L (Dilos.Kernel.read_u64 k ~core:0 a);
      check_i64 "b" 22L (Dilos.Kernel.read_u64 k ~core:0 b);
      check_int "usable size is class size" 128 (Dilos.Kernel.malloc_usable_size k a);
      Dilos.Kernel.ddc_free k ~core:0 a;
      Dilos.Kernel.ddc_free k ~core:0 b)

let alloc_large_objects () =
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.ddc_malloc k ~core:0 (3 * page) in
      Dilos.Kernel.write_u64 k ~core:0 (Int64.add a (Int64.of_int (2 * page))) 7L;
      check_i64 "large tail" 7L
        (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a (Int64.of_int (2 * page))));
      check_int "usable" (3 * page) (Dilos.Kernel.malloc_usable_size k a);
      Dilos.Kernel.ddc_free k ~core:0 a)

let alloc_double_free_rejected () =
  with_dilos (fun _eng k ->
      (* Keep a second chunk live so the slab page is not released. *)
      let a = Dilos.Kernel.ddc_malloc k ~core:0 64 in
      let keep = Dilos.Kernel.ddc_malloc k ~core:0 64 in
      ignore keep;
      Dilos.Kernel.ddc_free k ~core:0 a;
      Alcotest.check_raises "double free"
        (Invalid_argument "Ddc_alloc.free: double free") (fun () ->
          Dilos.Kernel.ddc_free k ~core:0 a))

let free_after_page_release_rejected () =
  with_dilos (fun _eng k ->
      (* Last chunk freed releases the slab page; a second free of the
         same address must still be rejected. *)
      let a = Dilos.Kernel.ddc_malloc k ~core:0 64 in
      Dilos.Kernel.ddc_free k ~core:0 a;
      try
        Dilos.Kernel.ddc_free k ~core:0 a;
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ())

let live_segments_tracks_frees () =
  with_dilos (fun _eng k ->
      let alloc = Dilos.Kernel.allocator k in
      (* Fill one fresh slab page of 512-byte chunks. *)
      let addrs = Array.init 8 (fun _ -> Dilos.Kernel.ddc_malloc k ~core:0 512) in
      let base = Int64.logand addrs.(0) (Int64.lognot 0xFFFL) in
      Alcotest.(check bool)
        "full page fully live" true
        (Dilos.Ddc_alloc.live_segments alloc base = None);
      (* Free chunks 1,2 and 5: live = [0], [3,4], [6,7]. *)
      List.iter (fun i -> Dilos.Kernel.ddc_free k ~core:0 addrs.(i)) [ 1; 2; 5 ];
      (match Dilos.Ddc_alloc.live_segments alloc base with
      | Some segs ->
          Alcotest.(check (list (pair int int)))
            "live segments" [ (0, 512); (1536, 1024); (3072, 1024) ] segs
      | None -> Alcotest.fail "expected segments");
      (* Free all: page becomes entirely dead. *)
      List.iter (fun i -> Dilos.Kernel.ddc_free k ~core:0 addrs.(i)) [ 0; 3; 4; 6; 7 ];
      Alcotest.(check bool)
        "fully dead" true
        (Dilos.Ddc_alloc.live_segments alloc base = Some []))

let guided_paging_preserves_live_data () =
  (* With guided paging, evicting a page with holes moves only live
     segments; refetch must restore every live object intact. *)
  with_dilos ~local_mem:(256 * 1024) ~guided:true (fun _eng k ->
      let n = 512 in
      let addrs = Array.init n (fun _ -> Dilos.Kernel.ddc_malloc k ~core:0 256) in
      Array.iteri
        (fun i a -> Dilos.Kernel.write_u64 k ~core:0 a (Int64.of_int (i + 1)))
        addrs;
      (* Punch holes: free every other object. *)
      Array.iteri
        (fun i a -> if i mod 2 = 1 then Dilos.Kernel.ddc_free k ~core:0 a)
        addrs;
      (* Blow the cache so everything gets evicted via the guide. *)
      let filler = Dilos.Kernel.mmap k ~len:(96 * page) ~ddc:true () in
      for i = 0 to 95 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add filler (Int64.of_int (i * page))) 0L
      done;
      Array.iteri
        (fun i a ->
          if i mod 2 = 0 then
            check_i64 "live object intact" (Int64.of_int (i + 1))
              (Dilos.Kernel.read_u64 k ~core:0 a))
        addrs)

let guided_paging_saves_bandwidth () =
  let traffic guided =
    with_dilos ~local_mem:(256 * 1024) ~guided (fun _eng k ->
        let n = 1024 in
        let addrs = Array.init n (fun _ -> Dilos.Kernel.ddc_malloc k ~core:0 256) in
        Array.iter (fun a -> Dilos.Kernel.write_u64 k ~core:0 a 1L) addrs;
        (* Free 75% -> pages are mostly dead. *)
        Array.iteri
          (fun i a -> if i mod 4 <> 0 then Dilos.Kernel.ddc_free k ~core:0 a)
          addrs;
        (* Force eviction, then read the survivors back. *)
        let filler = Dilos.Kernel.mmap k ~len:(96 * page) ~ddc:true () in
        for i = 0 to 95 do
          Dilos.Kernel.write_u64 k ~core:0
            (Int64.add filler (Int64.of_int (i * page)))
            0L
        done;
        Array.iteri
          (fun i a ->
            if i mod 4 = 0 then ignore (Dilos.Kernel.read_u64 k ~core:0 a))
          addrs;
        let bw = Rdma.Fabric.bandwidth (Dilos.Kernel.fabric k) in
        Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx)
  in
  let plain = traffic false and guided = traffic true in
  check_bool
    (Printf.sprintf "guided rx %d < plain rx %d" guided plain)
    true (guided < plain)

(* ------------------------------------------------------------------ *)
(* Guide machinery *)

let clamp_segments_caps_vector () =
  let segs = [ (0, 16); (64, 16); (256, 16); (1024, 16); (4000, 16) ] in
  let out = Dilos.Guide.clamp_segments segs in
  check_int "at most 3" 3 (List.length out);
  (* Total coverage keeps every live byte. *)
  let covers (off, len) (o, l) = o >= off && o + l <= off + len in
  List.iter
    (fun orig ->
      check_bool "still covered" true (List.exists (fun s -> covers s orig) out))
    segs

let subpage_fetch_returns_remote_data () =
  with_dilos ~local_mem:(256 * 1024) (fun eng k ->
      let a = Dilos.Kernel.mmap k ~len:page ~ddc:true () in
      Dilos.Kernel.write_u64 k ~core:0 (Int64.add a 128L) 0x1234L;
      (* Evict it. *)
      let filler = Dilos.Kernel.mmap k ~len:(80 * page) ~ddc:true () in
      for i = 0 to 79 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add filler (Int64.of_int (i * page))) 0L
      done;
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "evicted" true (Dilos.Kernel.page_tag k a <> Vmem.Pte.Local);
      let ops = Dilos.Kernel.prefetch_ops k ~core:0 in
      let got = ref None in
      ops.Dilos.Guide.pf_fetch_sub (Int64.add a 128L) 8 (fun b ->
          got := Some (Bytes.get_int64_le b 0));
      Sim.Engine.sleep eng (Sim.Time.us 50);
      (match !got with
      | Some v -> check_i64 "subpage data" 0x1234L v
      | None -> Alcotest.fail "subpage fetch never completed");
      check_bool "page still not local (subpage only)" true
        (Dilos.Kernel.page_tag k a <> Vmem.Pte.Local);
      check_int "counted" 1 (Sim.Stats.get (Dilos.Kernel.stats k) "subpage_fetches"))

let guide_pf_prefetch_brings_page_in () =
  with_dilos ~local_mem:(256 * 1024) (fun eng k ->
      let a = Dilos.Kernel.mmap k ~len:page ~ddc:true () in
      Dilos.Kernel.write_u64 k ~core:0 a 9L;
      let filler = Dilos.Kernel.mmap k ~len:(80 * page) ~ddc:true () in
      for i = 0 to 79 do
        Dilos.Kernel.write_u64 k ~core:0 (Int64.add filler (Int64.of_int (i * page))) 0L
      done;
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "evicted first" true (Dilos.Kernel.page_tag k a <> Vmem.Pte.Local);
      let ops = Dilos.Kernel.prefetch_ops k ~core:0 in
      ops.Dilos.Guide.pf_prefetch a;
      Sim.Engine.sleep eng (Sim.Time.us 50);
      check_bool "prefetched local" true (Dilos.Kernel.page_tag k a = Vmem.Pte.Local))

(* ------------------------------------------------------------------ *)
(* Loader *)

let loader_patches () =
  with_dilos (fun _eng k ->
      let l = Dilos.Kernel.loader k in
      Alcotest.(check string) "malloc patched" "ddc_malloc"
        (Dilos.Loader.resolve l "malloc");
      Alcotest.(check string) "free patched" "ddc_free" (Dilos.Loader.resolve l "free");
      Alcotest.(check string) "other untouched" "memcpy"
        (Dilos.Loader.resolve l "memcpy"))

let loader_hooks () =
  with_dilos (fun _eng k ->
      let l = Dilos.Kernel.loader k in
      let seen = ref [] in
      Dilos.Loader.register_hook l "list_traverse" (fun a -> seen := a :: !seen);
      Dilos.Loader.register_hook l "list_traverse" (fun a ->
          seen := Int64.neg a :: !seen);
      Dilos.Loader.fire_hook l "list_traverse" 5L;
      Dilos.Loader.fire_hook l "unrelated" 7L;
      Alcotest.(check (list int64)) "hooks fired in order" [ -5L; 5L ] !seen)

(* The hit path's re-validation (Dilos.Cpu): an access hits the TLB,
   its charge crosses the flush cap, and while the core sleeps off the
   pending time another fiber forces reclaim, which evicts the very
   page. The access must notice its slot is gone, fault the page back in
   through the kernel's fill, and use the new frame. A store through the
   cached offset would write into a freed frame and be lost when the
   page is next fetched; a load would return the recycled frame's bytes.
   Whether reclaim reaches the page inside the ~10 us window depends on
   how close to the low watermark the pool is, so the test sweeps the
   pre-pressure [k]: every run must see the right value, and at least
   one must have refilled the page during the access. *)
type access = Write_u64 | Write_u32_at | Write_u64_at | Read_u32_at

let access_name = function
  | Write_u64 -> "write_u64"
  | Write_u32_at -> "write_u32_at"
  | Write_u64_at -> "write_u64_at"
  | Read_u32_at -> "read_u32_at"

let revalidated = 0xFEED

let revalidate_run system access k =
  let pages = 48 and target = 47 in
  let out = ref None in
  ignore
    (Apps.Harness.run system ~local_mem:(32 * page) ~cores:2 (fun ctx ->
         let module M = Apps.Memif in
         let stats = ctx.Apps.Harness.stats and eng = ctx.Apps.Harness.eng in
         let m0 = ctx.Apps.Harness.mem ~core:0
         and m1 = ctx.Apps.Harness.mem ~core:1 in
         let r = m0.M.malloc (pages * page) in
         (* A load must find [revalidated] already in the target page;
            a store must find something else there, or a lost store
            would go unnoticed. *)
         for i = 0 to pages - 1 do
           let v = if i = target && access = Read_u32_at then revalidated else i in
           m0.M.write_u64_at r (i * page) (Int64.of_int v)
         done;
         m0.M.flush ();
         Sim.Engine.sleep eng (Sim.Time.ms 1);
         (* Core 1 drains the free pool with first touches: [k] now, the
            rest during the access's flush. *)
         let fresh = m1.M.malloc (128 * page) in
         let drain lo hi =
           for j = lo to hi - 1 do
             m1.M.touch (Int64.add fresh (Int64.of_int (j * page)))
           done;
           m1.M.flush ()
         in
         drain 0 k;
         let off = target * page in
         let a = Int64.add r (Int64.of_int off) in
         (* Load the translation (a miss leaves the 20 ns fill
            pending), then bring the pending time to 1 ns under the cap
            without yielding: the access below is a TLB hit whose
            charges flush. *)
         m0.M.flush ();
         ignore (m0.M.read_u64 a);
         m0.M.compute (Dilos.Cpu.pending_cap_ns - 21);
         Sim.Engine.spawn eng (fun () -> drain k (k + 64));
         let faults0 = Sim.Stats.get stats "major_faults" in
         let loaded =
           match access with
           | Write_u64 ->
               m0.M.write_u64 a (Int64.of_int revalidated);
               None
           | Write_u32_at ->
               m0.M.write_u32_at r off revalidated;
               None
           | Write_u64_at ->
               m0.M.write_u64_at r off (Int64.of_int revalidated);
               None
           | Read_u32_at -> Some (m0.M.read_u32_at r off)
         in
         let refilled = Sim.Stats.get stats "major_faults" - faults0 > 0 in
         let v =
           match loaded with
           | Some v -> Int64.of_int v
           | None ->
               Sim.Engine.sleep eng (Sim.Time.ms 1);
               (* Push the page out again so the read below comes from
                  the memory node. *)
               for i = 0 to pages - 2 do
                 ignore (m0.M.read_u64_at r (i * page))
               done;
               m0.M.read_u64 a
         in
         out := Some (refilled, v)));
  match !out with Some o -> o | None -> Alcotest.fail "scenario did not run"

let revalidates_after_sleeping_charge accesses () =
  List.iter
    (fun system ->
      List.iter
        (fun access ->
          let name =
            Apps.Harness.system_name system ^ " " ^ access_name access
          in
          let refills = ref 0 in
          for k = 0 to 40 do
            let refilled, v = revalidate_run system access k in
            if refilled then incr refills;
            check_i64
              (Printf.sprintf "%s k=%d: value survives" name k)
              (Int64.of_int revalidated) v
          done;
          check_bool
            (Printf.sprintf "%s: some access refilled its page (%d)" name
               !refills)
            true (!refills > 0))
        accesses)
    [ Apps.Harness.Dilos Dilos.Kernel.No_prefetch; Apps.Harness.Fastswap ]

(* Every scalar width rejects an access that would cross into the next
   page, through the kernel's accessors and both [Memif] forms, on both
   paging kernels; the same width ending exactly at the boundary is
   fine. *)
let scalar_straddle_rejected () =
  let module M = Apps.Memif in
  let straddle = "Kernel: scalar access straddles a page boundary" in
  with_dilos (fun _eng k ->
      let a = Dilos.Kernel.mmap k ~len:(2 * page) ~ddc:true () in
      Alcotest.check_raises "Kernel.read_u64 at 4090"
        (Invalid_argument straddle) (fun () ->
          ignore (Dilos.Kernel.read_u64 k ~core:0 (Int64.add a 4090L))));
  List.iter
    (fun system ->
      let sys = Apps.Harness.system_name system in
      ignore
        (Apps.Harness.run system ~local_mem:(32 * page) (fun ctx ->
             let m = ctx.Apps.Harness.mem ~core:0 in
             let r = m.M.malloc (2 * page) in
             let at off = Int64.add r (Int64.of_int off) in
             let accesses =
               [
                 (2, "read_u16", fun off -> ignore (m.M.read_u16 (at off)));
                 (4, "read_u32", fun off -> ignore (m.M.read_u32 (at off)));
                 (8, "read_u64", fun off -> ignore (m.M.read_u64 (at off)));
                 (2, "write_u16", fun off -> m.M.write_u16 (at off) 1);
                 (4, "write_u32", fun off -> m.M.write_u32 (at off) 1);
                 (8, "write_u64", fun off -> m.M.write_u64 (at off) 1L);
                 (2, "read_u16_at", fun off -> ignore (m.M.read_u16_at r off));
                 (4, "read_u32_at", fun off -> ignore (m.M.read_u32_at r off));
                 (8, "read_u64_at", fun off -> ignore (m.M.read_u64_at r off));
                 (2, "write_u16_at", fun off -> m.M.write_u16_at r off 1);
                 (4, "write_u32_at", fun off -> m.M.write_u32_at r off 1);
                 (8, "write_u64_at", fun off -> m.M.write_u64_at r off 1L);
               ]
             in
             List.iter
               (fun (width, name, go) ->
                 go (page - width);
                 Alcotest.check_raises
                   (Printf.sprintf "%s %s at %d" sys name (page - width + 1))
                   (Invalid_argument straddle)
                   (fun () -> go (page - width + 1)))
               accesses)))
    [ Apps.Harness.Dilos Dilos.Kernel.No_prefetch; Apps.Harness.Fastswap ]

let suite =
  [
    quick "roundtrip within cache" roundtrip_within_cache;
    quick "roundtrip through eviction" roundtrip_through_eviction;
    quick "rewrite after writeback" rewrite_after_writeback;
    quick "segfault on unmapped" segfault_on_unmapped;
    quick "zero-fill reads zero" zero_fill_reads_zero;
    quick "bulk roundtrip cross page" bulk_roundtrip_cross_page;
    quick "scalar straddle rejected" scalar_straddle_rejected;
    quick "store re-validates after a sleeping charge"
      (revalidates_after_sleeping_charge
         [ Write_u64; Write_u32_at; Write_u64_at ]);
    quick "load re-validates after a sleeping charge"
      (revalidates_after_sleeping_charge [ Read_u32_at ]);
    quick "fault latency reasonable" fault_latency_reasonable;
    quick "prefetch reduces major faults" prefetch_reduces_major_faults;
    quick "prefetched pages wait not refetch" prefetched_pages_wait_not_refetch;
    quick "multicore shared fetch" multicore_shared_fetch;
    quick "munmap frees frames" munmap_frees_frames;
    quick "ddc alloc roundtrip" alloc_roundtrip;
    quick "ddc alloc large objects" alloc_large_objects;
    quick "ddc alloc double free rejected" alloc_double_free_rejected;
    quick "ddc free after page release rejected" free_after_page_release_rejected;
    quick "live segments track frees" live_segments_tracks_frees;
    quick "guided paging preserves live data" guided_paging_preserves_live_data;
    quick "guided paging saves bandwidth" guided_paging_saves_bandwidth;
    quick "clamp_segments caps vector" clamp_segments_caps_vector;
    quick "subpage fetch returns remote data" subpage_fetch_returns_remote_data;
    quick "guide pf_prefetch brings page in" guide_pf_prefetch_brings_page_in;
    quick "loader patches symbols" loader_patches;
    quick "loader hooks" loader_hooks;
  ]
