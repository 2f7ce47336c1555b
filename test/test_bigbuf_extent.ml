(* Property suites for the paper-scale engine:

   - Bigbuf round-trip: the off-heap slab's scalar/blit/fill accessors
     agree with a plain [Bytes.t] reference model under random
     operation sequences (so the Bigarray store is a drop-in for the
     bytes-per-page store it replaced). The five bulk operations —
     each one libc call — are also checked one by one against the
     model on two slabs and a heap buffer, in range and out of it,
     and pinned to allocate nothing; so is [Bigbuf.used], the scan
     for a range's last nonzero byte.

   - The allocator: every slab reads zero whichever side of the 2 MiB
     mapping threshold it falls on, and a dropped mapped slab is
     unmapped when collected.

   - Page-window equivalence: a window of page READs must be
     indistinguishable — payloads, completion instants, every
     counter — from one-event-per-page posting, on clean and flaky
     fabrics. At the QP level [Rdma.Qp.post_read_pages] is checked
     against [count] hand-posted one-page [Rdma.Qp.post_read]s, and
     it must validate every page before posting any; through four
     full workload kernels the reference is the counter dump and
     elapsed time each kernel produced when every page of a window
     rode its own engine event. *)

open Util
module H = Apps.Harness
module Bigbuf = Sim.Bigbuf

(* ------------------------------------------------------------------ *)
(* Bigbuf vs Bytes reference model *)

type op =
  | Set8 of int * int
  | Set16 of int * int
  | Set32 of int * int
  | Set64 of int * int64
  | Fill of int * int * char
  | Blit_within of int * int * int

let op_gen size =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun o v -> Set8 (o mod size, v)) (int_bound (size - 1)) (int_bound 255));
        ( 3,
          map2
            (fun o v -> Set16 (o mod (size - 1), v))
            (int_bound (size - 2))
            (int_bound 0xFFFF) );
        ( 3,
          map2
            (fun o v -> Set32 (o mod (size - 3), v))
            (int_bound (size - 4))
            (map Int64.to_int (map Int64.of_int int)) );
        ( 3,
          map2
            (fun o v -> Set64 (o mod (size - 7), v))
            (int_bound (size - 8))
            (map Int64.of_int int) );
        ( 1,
          map3
            (fun o l c -> Fill (o, min l (size - o), Char.chr c))
            (int_bound (size - 1))
            (int_bound 512) (int_bound 255) );
        ( 1,
          (* the slab blit is memmove: overlapping ranges are fine *)
          map3
            (fun s d l -> Blit_within (s, d, min l (min (size - s) (size - d))))
            (int_bound (size - 1))
            (int_bound (size - 1))
            (int_bound 256) );
      ])

let apply_slab slab = function
  | Set8 (o, v) -> Bigbuf.set_u8 slab o v
  | Set16 (o, v) -> Bigbuf.set_u16_le slab o v
  | Set32 (o, v) -> Bigbuf.set_u32_le slab o (v land 0xFFFFFFFF)
  | Set64 (o, v) -> Bigbuf.set_u64_le slab o v
  | Fill (o, l, c) -> Bigbuf.fill slab ~off:o ~len:l c
  | Blit_within (s, d, l) -> Bigbuf.blit slab ~src_off:s slab ~dst_off:d ~len:l

let apply_bytes b = function
  | Set8 (o, v) -> Bytes.set_uint8 b o v
  | Set16 (o, v) -> Bytes.set_uint16_le b o v
  | Set32 (o, v) ->
      Bytes.set_int32_le b o (Int32.of_int (v land 0xFFFFFFFF))
  | Set64 (o, v) -> Bytes.set_int64_le b o v
  | Fill (o, l, c) -> Bytes.fill b o l c
  | Blit_within (s, d, l) -> Bytes.blit b s b d l

let bigbuf_roundtrip =
  let size = 16384 in
  QCheck.Test.make ~name:"bigbuf ops match Bytes reference model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) (op_gen size)))
    (fun ops ->
      let slab = Bigbuf.create size in
      let b = Bytes.make size '\000' in
      List.iter
        (fun op ->
          apply_slab slab op;
          apply_bytes b op)
        ops;
      (* Read back through every accessor width, plus a full copy-out. *)
      let ok = ref (Bytes.equal (Bigbuf.to_bytes slab ~off:0 ~len:size) b) in
      for o = 0 to (size / 8) - 1 do
        let o = o * 8 in
        if
          Bigbuf.get_u64_le slab o <> Bytes.get_int64_le b o
          || Bigbuf.get_u32_le slab o
             <> Int32.to_int (Bytes.get_int32_le b o) land 0xFFFFFFFF
          || Bigbuf.get_u16_le slab o <> Bytes.get_uint16_le b o
          || Bigbuf.get_u8 slab o <> Bytes.get_uint8 b o
        then ok := false
      done;
      !ok)

let bigbuf_bytes_blits =
  QCheck.Test.make ~name:"bigbuf blit_to/from_bytes round-trip" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 4096)) small_nat)
    (fun (payload, off_seed) ->
      let n = String.length payload in
      let slab = Bigbuf.create (n + 8192) in
      let off = off_seed mod 4096 in
      Bigbuf.blit_from_bytes (Bytes.of_string payload) ~src_off:0 slab
        ~dst_off:off ~len:n;
      let back = Bytes.create n in
      Bigbuf.blit_to_bytes slab ~src_off:off back ~dst_off:0 ~len:n;
      String.equal payload (Bytes.to_string back))

(* The bulk operations one at a time against a [Bytes] model: two
   slabs of odd sizes (so the same-slab case covers overlapping
   memmove) and one heap buffer. Offsets and lengths stray past both
   ends and below zero; an out-of-range call must raise
   [Invalid_argument] and leave every buffer as it was. *)

type slab_id = A | B

type bulk =
  | Blit of slab_id * int * slab_id * int * int
  | Fill of slab_id * int * int * char
  | To_bytes of slab_id * int * int * int
  | From_bytes of int * slab_id * int * int
  | Equal of slab_id * int * slab_id * int * int
  | Used of slab_id * int * int

let size_a = 1031
let size_b = 517
let size_h = 263

let size_of = function A -> size_a | B -> size_b

let bulk_gen =
  let open QCheck.Gen in
  let id = oneofl [ A; B ] in
  let off size = frequency [ (8, int_range 0 size); (1, int_range (-3) (-1)); (1, int_range (size + 1) (size + 3)) ] in
  let len =
    frequency
      [
        (2, return 0);
        (6, int_range 1 67);
        (2, int_range 0 size_a);
        (1, int_range (-3) (-1));
      ]
  in
  (* zeros too, so [Used] meets zero tails and all-zero ranges *)
  let ch = map Char.chr (oneofl [ 0; 97; 98; 99 ]) in
  frequency
    [
      ( 3,
        id >>= fun s ->
        id >>= fun d ->
        map3 (fun so dof l -> Blit (s, so, d, dof, l)) (off (size_of s)) (off (size_of d)) len );
      (2, id >>= fun s -> map3 (fun o l c -> Fill (s, o, l, c)) (off (size_of s)) len ch);
      (2, id >>= fun s -> map3 (fun so dof l -> To_bytes (s, so, dof, l)) (off (size_of s)) (off size_h) len);
      (2, id >>= fun d -> map3 (fun so dof l -> From_bytes (so, d, dof, l)) (off size_h) (off (size_of d)) len);
      ( 2,
        id >>= fun a ->
        id >>= fun b ->
        (* same offsets half the time, so equal ranges actually occur *)
        bool >>= fun same ->
        map3
          (fun ao bo l -> Equal (a, ao, b, (if same then ao else bo), l))
          (off (size_of a)) (off (size_of b)) len );
      (2, id >>= fun s -> map2 (fun o l -> Used (s, o, l)) (off (size_of s)) len);
    ]

let in_range size off len = off >= 0 && len >= 0 && off <= size - len

(* [Bigbuf.used] on the model: the offset of the last nonzero byte of
   the range, plus one. *)
let bytes_used b off len =
  let rec go n = if n > 0 && Bytes.get b (off + n - 1) = '\000' then go (n - 1) else n in
  go len

(* [true] iff [f] raised [Invalid_argument] exactly when [ok] is false. *)
let raises_iff ok f =
  match f () with
  | () -> ok
  | exception Invalid_argument _ -> not ok

let bigbuf_bulk_model =
  QCheck.Test.make ~name:"bigbuf bulk ops match Bytes model, bounds and overlap"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) bulk_gen))
    (fun ops ->
      let a = Bigbuf.create size_a and b = Bigbuf.create size_b in
      let h = Bytes.make size_h 'h' in
      let ma = Bytes.make size_a '\000' and mb = Bytes.make size_b '\000' in
      let mh = Bytes.make size_h 'h' in
      let slab = function A -> a | B -> b in
      let model = function A -> ma | B -> mb in
      let step = function
        | Blit (s, so, d, dof, l) ->
            let ok = in_range (size_of s) so l && in_range (size_of d) dof l in
            let r = raises_iff ok (fun () -> Bigbuf.blit (slab s) ~src_off:so (slab d) ~dst_off:dof ~len:l) in
            if ok then Bytes.blit (model s) so (model d) dof l;
            r
        | Fill (s, o, l, c) ->
            let ok = in_range (size_of s) o l in
            let r = raises_iff ok (fun () -> Bigbuf.fill (slab s) ~off:o ~len:l c) in
            if ok then Bytes.fill (model s) o l c;
            r
        | To_bytes (s, so, dof, l) ->
            let ok = in_range (size_of s) so l && in_range size_h dof l in
            let r = raises_iff ok (fun () -> Bigbuf.blit_to_bytes (slab s) ~src_off:so h ~dst_off:dof ~len:l) in
            if ok then Bytes.blit (model s) so mh dof l;
            r
        | From_bytes (so, d, dof, l) ->
            let ok = in_range size_h so l && in_range (size_of d) dof l in
            let r = raises_iff ok (fun () -> Bigbuf.blit_from_bytes h ~src_off:so (slab d) ~dst_off:dof ~len:l) in
            if ok then Bytes.blit mh so (model d) dof l;
            r
        | Equal (x, xo, y, yo, l) ->
            let ok = in_range (size_of x) xo l && in_range (size_of y) yo l in
            let got = ref None in
            let r =
              raises_iff ok (fun () ->
                  got := Some (Bigbuf.equal_range (slab x) ~a_off:xo (slab y) ~b_off:yo ~len:l))
            in
            let want = if ok then Some (Bytes.equal (Bytes.sub (model x) xo l) (Bytes.sub (model y) yo l)) else None in
            r && !got = want
        | Used (s, o, l) ->
            let ok = in_range (size_of s) o l in
            let got = ref None in
            let r = raises_iff ok (fun () -> got := Some (Bigbuf.used (slab s) ~off:o ~len:l)) in
            r && !got = if ok then Some (bytes_used (model s) o l) else None
      in
      let same () =
        Bytes.equal (Bigbuf.to_bytes a ~off:0 ~len:size_a) ma
        && Bytes.equal (Bigbuf.to_bytes b ~off:0 ~len:size_b) mb
        && Bytes.equal h mh
      in
      List.for_all (fun op -> step op && same ()) ops)

(* [used] on the shapes a page store meets, at every offset within a
   word and every length up to two words plus one, and a page: an
   all-zero range, one whose only nonzero byte is its last, one whose
   only nonzero byte is its first (with a nonzero byte just past the
   range, which must not count), a dense prefix with a zero tail, and
   a dense range. *)
let bigbuf_used_shapes () =
  let size = 4096 + 16 in
  let slab = Bigbuf.create size in
  let set i = Bigbuf.set_u8 slab i 0x5A in
  List.iter
    (fun len ->
      for off = 0 to 8 do
        let expect what want =
          check_int (Printf.sprintf "%s, +%d len %d" what off len) want
            (Bigbuf.used slab ~off ~len);
          Bigbuf.fill slab ~off:0 ~len:size '\000'
        in
        expect "all zero" 0;
        if len > 0 then begin
          set (off + len - 1);
          expect "only the last byte" len;
          set off;
          set (off + len);
          expect "only the first byte" 1;
          Bigbuf.fill slab ~off ~len:((len + 1) / 2) 'd';
          expect "dense prefix, zero tail" ((len + 1) / 2);
          Bigbuf.fill slab ~off ~len 'd';
          expect "dense" len
        end
      done)
    (List.init 18 Fun.id @ [ 4096 ]);
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "used +%d len %d" off len)
        (Invalid_argument "Bigbuf: access out of bounds")
        (fun () -> ignore (Bigbuf.used slab ~off ~len)))
    [ (-1, 4); (0, -1); (size - 3, 4); (size + 1, 0); (min_int, 1) ]

(* ------------------------------------------------------------------ *)
(* The allocator *)

let mib = 1 lsl 20

(* A dirty slab of each size is dropped first, so a small slab that the
   heap recycles would show its bytes if [create] skipped the memset. *)
let create_reads_zero () =
  List.iter
    (fun n ->
      let dirty = Bigbuf.create n in
      Bigbuf.fill dirty ~off:0 ~len:n '\xAA';
      Gc.full_major ();
      let b = Bigbuf.create n in
      check_int (Printf.sprintf "length of %d" n) n (Bigbuf.length b);
      check_bool (Printf.sprintf "create %d reads zero" n) true
        (Bytes.equal (Bigbuf.to_bytes b ~off:0 ~len:n) (Bytes.make n '\000')))
    [ 0; 1; 4095; (2 * mib) - 1; 2 * mib; (2 * mib) + 4097 ]

(* Line count and total bytes of this process's mappings. Neighbouring
   anonymous mappings may merge into one line, so a leak shows in the
   bytes even where the line count hides it. Kernel addresses (the
   vsyscall page) do not fit an [int] and are counted as lines only. *)
let maps () =
  let ic = open_in "/proc/self/maps" in
  let rec go lines bytes =
    match input_line ic with
    | exception End_of_file -> (lines, bytes)
    | l ->
        let size =
          match String.split_on_char '-' (List.hd (String.split_on_char ' ' l)) with
          | [ lo; hi ] -> (
              match (int_of_string_opt ("0x" ^ lo), int_of_string_opt ("0x" ^ hi)) with
              | Some lo, Some hi -> hi - lo
              | _ -> 0)
          | _ -> 0
        in
        go (lines + 1) (bytes + size)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0 0)

let mapped_slabs_unmapped () =
  if Sys.file_exists "/proc/self/maps" then begin
    Gc.full_major ();
    let lines0, bytes0 = maps () in
    for i = 1 to 64 do
      let b = Bigbuf.create (4 * mib) in
      Bigbuf.set_u8 b (i * 4096) i
    done;
    Gc.full_major ();
    let lines1, bytes1 = maps () in
    check_bool (Printf.sprintf "maps lines %d -> %d" lines0 lines1) true (lines1 <= lines0 + 4);
    check_bool
      (Printf.sprintf "mapped bytes %d -> %d" bytes0 bytes1)
      true
      (bytes1 - bytes0 < 64 * mib)
  end

(* "No view, no box": the copy path must not touch the minor heap.
   Offsets vary per call so unaligned heads and odd tails are timed
   too. *)
let bigbuf_bulk_no_alloc () =
  let a = Bigbuf.create 8192 and b = Bigbuf.create 8192 in
  let h = Bytes.make 8192 'y' in
  let n = 10_000 in
  let zero_words name loop =
    let w0 = Gc.minor_words () in
    loop ();
    let w1 = Gc.minor_words () in
    check_int (name ^ ": minor words over 10k calls") 0 (int_of_float (w1 -. w0))
  in
  zero_words "blit" (fun () ->
      for i = 0 to n - 1 do
        Bigbuf.blit a ~src_off:(i land 511) b ~dst_off:(i land 255) ~len:(4096 - (i land 7))
      done);
  zero_words "fill" (fun () ->
      for i = 0 to n - 1 do
        Bigbuf.fill a ~off:(i land 511) ~len:(4096 - (i land 7)) 'x'
      done);
  zero_words "blit_to_bytes" (fun () ->
      for i = 0 to n - 1 do
        Bigbuf.blit_to_bytes a ~src_off:(i land 511) h ~dst_off:(i land 255) ~len:(4080 + (i land 7))
      done);
  zero_words "blit_from_bytes" (fun () ->
      for i = 0 to n - 1 do
        Bigbuf.blit_from_bytes h ~src_off:(i land 255) b ~dst_off:(i land 511) ~len:(4080 + (i land 7))
      done);
  (* [b] mirrors [a] except byte 6000, which every odd-[i] range
     covers: half the compares succeed, half stop at a difference. *)
  Bigbuf.blit a ~src_off:0 b ~dst_off:0 ~len:8192;
  Bigbuf.set_u8 b 6000 (Bigbuf.get_u8 a 6000 lxor 1);
  let eq = ref 0 in
  zero_words "equal_range" (fun () ->
      for i = 0 to n - 1 do
        let off = (i land 511) + ((i land 1) * 2048) in
        if Bigbuf.equal_range a ~a_off:off b ~b_off:off ~len:(4096 - (i land 7))
        then incr eq
      done);
  check_int "equal_range: even calls equal, odd calls differ" (n / 2) !eq;
  (* Even [i]'s ranges end inside [b]'s run of 'x', so the scan stops
     at its last word; odd [i]'s end in the zeros past it (or at byte
     6000), so it walks back. *)
  let used = ref 0 in
  zero_words "used" (fun () ->
      for i = 0 to n - 1 do
        let off = (i land 511) + ((i land 1) * 2048) in
        used := !used + Bigbuf.used b ~off ~len:(4096 - (i land 7))
      done);
  check_bool "used: some ranges end in data" true (!used > 0)

(* ------------------------------------------------------------------ *)
(* Page windows: QP level *)

(* One extent's worth of full-page READs against a patterned store,
   posted either as one [post_read_pages] extent or as [count]
   back-to-back one-page [post_read]s, then one more READ at the same
   instant (its start shows where the extent left the send queue):
   returns the per-page completion instants, the landed payload, the
   counter dump and the final sim time. *)
let qp_extent_run ~coalesce ~count ~fault_spec =
  run_sim (fun eng ->
      let faults = plan_of ?fault_spec () in
      let server =
        Memnode.Server.create ~eng ~size:(Int64.of_int (1 lsl 24)) ?faults ()
      in
      let stats = Sim.Stats.create () in
      let fabric = Memnode.Server.connect server ~stats () in
      let qp = Rdma.Fabric.qp fabric ~name:"extent-test" in
      (* Pattern the remote pages. *)
      let page = 4096 in
      let src = Bigbuf.create (count * page) in
      for i = 0 to count - 1 do
        Bigbuf.set_u64_le src (i * page) (Int64.of_int (0x1000 + i))
      done;
      Rdma.Qp.write qp ~raddr:0L ~buf:src ~off:0 ~len:(count * page);
      let dst = Bigbuf.create ((count + 1) * page) in
      (* Land pages in reverse slab order to exercise offs. *)
      let offs = Array.init count (fun i -> (count - 1 - i) * page) in
      let completions = ref [] in
      let done_ = ref 0 in
      let on_page i =
        completions := (i, Sim.Engine.now eng) :: !completions;
        incr done_
      in
      if coalesce then
        Rdma.Qp.post_read_pages qp ~raddr0:0L ~buf:dst ~offs ~count ~on_page
          ~on_page_error:None
      else
        for i = 0 to count - 1 do
          Rdma.Qp.post_read qp
            ~segs:
              [
                {
                  Rdma.Qp.raddr = Int64.of_int (i * page);
                  loff = offs.(i);
                  len = page;
                };
              ]
            ~buf:dst
            ~on_complete:(fun () -> on_page i)
        done;
      Rdma.Qp.post_read qp
        ~segs:[ { Rdma.Qp.raddr = 0L; loff = count * page; len = page } ]
        ~buf:dst
        ~on_complete:(fun () -> on_page count);
      while !done_ <= count do
        Sim.Engine.sleep eng (Sim.Time.us 1)
      done;
      let payload = Bigbuf.to_bytes dst ~off:0 ~len:((count + 1) * page) in
      (List.rev !completions, payload, Sim.Stats.counters stats,
       Sim.Engine.now eng))

let qp_extent_equivalence ~count ~fault_spec name =
  let c1, p1, s1, t1 = qp_extent_run ~coalesce:true ~count ~fault_spec in
  let c0, p0, s0, t0 = qp_extent_run ~coalesce:false ~count ~fault_spec in
  Alcotest.(check (list (pair int int64)))
    (name ^ ": completion instants") c0 c1;
  check_bool (name ^ ": payloads") true (Bytes.equal p0 p1);
  Test_determinism.check_counter_lists name s0 s1;
  check_i64 (name ^ ": final time") t0 t1;
  (* The landed pattern is the source pattern, reversed into offs. *)
  List.iter
    (fun (i, _) ->
      if i < count then
        check_i64
          (Printf.sprintf "%s: page %d payload" name i)
          (Int64.of_int (0x1000 + i))
          (Bytes.get_int64_le p1 ((count - 1 - i) * 4096)))
    c1

let qp_extent_clean () = qp_extent_equivalence ~count:13 ~fault_spec:None "clean"

let qp_extent_flaky () =
  qp_extent_equivalence ~count:13
    ~fault_spec:(Some Faults.Spec.flaky)
    "flaky"

(* [post_read_pages] validates every page before posting any: a bad
   page [k] raises with nothing counted and nothing scheduled, not
   after pages [0..k-1] are already on the wire. *)
let qp_pages_validate_first () =
  let page = 4096 and count = 4 and k = 2 in
  let attempt name ~expect ~raddr0 ~offs =
    let eng = Sim.Engine.create () in
    let size = 16 * page in
    let server = Memnode.Server.create ~eng ~size:(Int64.of_int size) () in
    let stats = Sim.Stats.create () in
    let fabric = Memnode.Server.connect server ~stats () in
    let qp = Rdma.Fabric.qp fabric ~name:"validate-test" in
    Sim.Engine.run eng;
    let buf = Bigbuf.create (count * page) in
    let raised =
      try
        Rdma.Qp.post_read_pages qp ~raddr0 ~buf ~offs ~count
          ~on_page:(fun _ -> ())
          ~on_page_error:None;
        false
      with exn -> expect exn
    in
    check_bool (name ^ ": raised") true raised;
    check_int (name ^ ": rdma_reads") 0 (Sim.Stats.get stats "rdma_reads");
    check_int (name ^ ": pending") 0 (Sim.Engine.pending eng)
  in
  let in_buf = Array.init count (fun i -> i * page) in
  attempt "page outside region"
    ~expect:(function Rdma.Region.Protection_fault _ -> true | _ -> false)
    ~raddr0:(Int64.of_int ((16 - k) * page))
    ~offs:in_buf;
  attempt "page outside local buffer"
    ~expect:(function Invalid_argument _ -> true | _ -> false)
    ~raddr0:0L
    ~offs:(Array.mapi (fun i o -> if i = k then count * page else o) in_buf)

(* ------------------------------------------------------------------ *)
(* Page windows: whole-kernel equivalence

   Four workload kernels spanning the fetch paths that post page
   windows —
   sequential readahead windows (seq), sort-driven strided windows
   (quicksort), fastswap's swap-cache readahead, and the guided LRANGE
   chain — each run clean and flaky. Each run must reproduce, counter
   for counter and to the nanosecond of elapsed time, the golden below,
   recorded with every page of a window posted as its own engine
   event. *)

let per_page_goldens =
  [
    ( "seqread/clean",
      ( 939_330L,
        [ ("evictions", 990); ("fault_fetch_retries", 0); ("fetch_waits", 389);
          ("major_faults", 60); ("ph_alloc_ns", 5400);
          ("ph_exception_ns", 34_200); ("ph_fetch_ns", 172_680);
          ("ph_pte_ns", 6000); ("ph_reclaim_ns", 0); ("prefetch_aborted", 0);
          ("prefetch_issued", 452); ("rdma_comp_errors", 0);
          ("rdma_dup_completions", 0); ("rdma_perm_failures", 0);
          ("rdma_read_batches", 59); ("rdma_read_bytes", 2_097_152);
          ("rdma_reads", 512); ("rdma_retrans_delays", 0); ("rdma_retries", 0);
          ("rdma_timeouts", 0); ("rdma_write_bytes", 2_097_152);
          ("rdma_writes", 512); ("reclaim_gave_up", 0);
          ("reclaim_stall_ns", 38_116); ("reclaim_stalls", 155);
          ("subpage_bytes", 0); ("subpage_fetches", 0);
          ("writeback_failures", 0); ("writebacks", 512);
          ("zero_fill_faults", 512) ] ) );
    ( "quicksort/clean",
      ( 8_833_562L,
        [ ("evictions", 1458); ("fault_fetch_retries", 0); ("fetch_waits", 5);
          ("major_faults", 403); ("ph_alloc_ns", 36_270);
          ("ph_exception_ns", 229_710); ("ph_fetch_ns", 1_159_834);
          ("ph_pte_ns", 40_300); ("ph_reclaim_ns", 0); ("prefetch_aborted", 0);
          ("prefetch_issued", 957); ("rdma_comp_errors", 0);
          ("rdma_dup_completions", 0); ("rdma_perm_failures", 0);
          ("rdma_read_batches", 385); ("rdma_read_bytes", 5_570_560);
          ("rdma_reads", 1360); ("rdma_retrans_delays", 0);
          ("rdma_retries", 0); ("rdma_timeouts", 0);
          ("rdma_write_bytes", 6_586_368); ("rdma_writes", 1608);
          ("reclaim_gave_up", 7); ("reclaim_stall_ns", 0);
          ("reclaim_stalls", 0); ("subpage_bytes", 0); ("subpage_fetches", 0);
          ("writeback_failures", 0); ("writebacks", 1608);
          ("zero_fill_faults", 118) ] ) );
    ( "fastswap/clean",
      ( 3_993_026L,
        [ ("direct_reclaims", 363); ("evictions", 972);
          ("fault_fetch_retries", 0); ("major_faults", 76);
          ("minor_faults", 437); ("ph_alloc_ns", 19_760);
          ("ph_exception_ns", 43_320); ("ph_fetch_ns", 220_342);
          ("ph_other_ns", 14_440); ("ph_reclaim_ns", 646_140);
          ("ph_swapcache_ns", 39_520); ("ra_aborted", 0); ("ra_dropped", 2);
          ("rdma_comp_errors", 0); ("rdma_dup_completions", 0);
          ("rdma_perm_failures", 0); ("rdma_read_batches", 69);
          ("rdma_read_bytes", 2_105_344); ("rdma_reads", 514);
          ("rdma_retrans_delays", 0); ("rdma_retries", 0);
          ("rdma_timeouts", 0); ("rdma_write_bytes", 2_097_152);
          ("rdma_writes", 512); ("readahead_pages", 438); ("writebacks", 512);
          ("zero_fill_faults", 512) ] ) );
    ( "lrange/clean",
      ( 933_823L,
        [ ("evictions", 761); ("fault_fetch_retries", 0); ("fetch_waits", 234);
          ("major_faults", 6); ("ph_alloc_ns", 540); ("ph_exception_ns", 3420);
          ("ph_fetch_ns", 15_471); ("ph_pte_ns", 600); ("ph_reclaim_ns", 0);
          ("prefetch_aborted", 0); ("prefetch_issued", 275);
          ("rdma_comp_errors", 0); ("rdma_dup_completions", 0);
          ("rdma_perm_failures", 0); ("rdma_read_batches", 5);
          ("rdma_read_bytes", 1_127_904); ("rdma_reads", 292);
          ("rdma_retrans_delays", 0); ("rdma_retries", 0);
          ("rdma_timeouts", 0); ("rdma_write_bytes", 2_523_808);
          ("rdma_writes", 625); ("reclaim_gave_up", 0);
          ("reclaim_stall_ns", 1991); ("reclaim_stalls", 3);
          ("subpage_bytes", 352); ("subpage_fetches", 11);
          ("writeback_failures", 0); ("writebacks", 625);
          ("zero_fill_faults", 514) ] ) );
    ( "seqread/flaky",
      ( 1_300_128L,
        [ ("evictions", 974); ("fault_fetch_retries", 0); ("fetch_waits", 327);
          ("major_faults", 61); ("ph_alloc_ns", 5490);
          ("ph_exception_ns", 34_770); ("ph_fetch_ns", 255_089);
          ("ph_pte_ns", 6100); ("ph_reclaim_ns", 312); ("prefetch_aborted", 0);
          ("prefetch_issued", 455); ("rdma_comp_errors", 20);
          ("rdma_dup_completions", 15); ("rdma_perm_failures", 0);
          ("rdma_read_batches", 60); ("rdma_read_bytes", 2_150_400);
          ("rdma_reads", 525); ("rdma_retrans_delays", 43);
          ("rdma_retries", 20); ("rdma_timeouts", 0);
          ("rdma_write_bytes", 2_142_208); ("rdma_writes", 523);
          ("reclaim_gave_up", 0); ("reclaim_stall_ns", 47_996);
          ("reclaim_stalls", 144); ("subpage_bytes", 0);
          ("subpage_fetches", 0); ("writeback_failures", 0);
          ("writebacks", 512); ("zero_fill_faults", 512) ] ) );
    ( "quicksort/flaky",
      ( 10_038_499L,
        [ ("evictions", 1480); ("fault_fetch_retries", 0); ("fetch_waits", 51);
          ("major_faults", 412); ("ph_alloc_ns", 37_080);
          ("ph_exception_ns", 234_840); ("ph_fetch_ns", 1_690_813);
          ("ph_pte_ns", 41_200); ("ph_reclaim_ns", 0); ("prefetch_aborted", 0);
          ("prefetch_issued", 971); ("rdma_comp_errors", 57);
          ("rdma_dup_completions", 38); ("rdma_perm_failures", 0);
          ("rdma_read_batches", 383); ("rdma_read_bytes", 5_799_936);
          ("rdma_reads", 1416); ("rdma_retrans_delays", 153);
          ("rdma_retries", 57); ("rdma_timeouts", 0);
          ("rdma_write_bytes", 6_893_568); ("rdma_writes", 1683);
          ("reclaim_gave_up", 7); ("reclaim_stall_ns", 0);
          ("reclaim_stalls", 0); ("subpage_bytes", 0); ("subpage_fetches", 0);
          ("writeback_failures", 0); ("writebacks", 1659);
          ("zero_fill_faults", 118) ] ) );
    ( "fastswap/flaky",
      ( 4_619_812L,
        [ ("direct_reclaims", 369); ("evictions", 985);
          ("fault_fetch_retries", 0); ("major_faults", 82);
          ("minor_faults", 431); ("ph_alloc_ns", 21_320);
          ("ph_exception_ns", 46_740); ("ph_fetch_ns", 292_205);
          ("ph_other_ns", 15_580); ("ph_reclaim_ns", 656_820);
          ("ph_swapcache_ns", 42_640); ("ra_aborted", 0); ("ra_dropped", 1);
          ("rdma_comp_errors", 23); ("rdma_dup_completions", 16);
          ("rdma_perm_failures", 0); ("rdma_read_batches", 77);
          ("rdma_read_bytes", 2_142_208); ("rdma_reads", 523);
          ("rdma_retrans_delays", 35); ("rdma_retries", 23);
          ("rdma_timeouts", 0); ("rdma_write_bytes", 2_150_400);
          ("rdma_writes", 525); ("readahead_pages", 431); ("writebacks", 512);
          ("zero_fill_faults", 512) ] ) );
    ( "lrange/flaky",
      ( 1_147_767L,
        [ ("evictions", 743); ("fault_fetch_retries", 0); ("fetch_waits", 222);
          ("major_faults", 4); ("ph_alloc_ns", 360); ("ph_exception_ns", 2280);
          ("ph_fetch_ns", 9715); ("ph_pte_ns", 400); ("ph_reclaim_ns", 0);
          ("prefetch_aborted", 0); ("prefetch_issued", 259);
          ("rdma_comp_errors", 17); ("rdma_dup_completions", 17);
          ("rdma_perm_failures", 0); ("rdma_read_batches", 4);
          ("rdma_read_bytes", 1_070_464); ("rdma_reads", 275);
          ("rdma_retrans_delays", 41); ("rdma_retries", 17);
          ("rdma_timeouts", 0); ("rdma_write_bytes", 2_589_568);
          ("rdma_writes", 640); ("reclaim_gave_up", 0);
          ("reclaim_stall_ns", 9900); ("reclaim_stalls", 3);
          ("subpage_bytes", 256); ("subpage_fetches", 8);
          ("writeback_failures", 0); ("writebacks", 627);
          ("zero_fill_faults", 514) ] ) );
  ]

let kernel_equivalence name system ~local_mem ~fault_spec f () =
  let fname = if Option.is_some fault_spec then "flaky" else "clean" in
  let elapsed, counters = List.assoc (name ^ "/" ^ fname) per_page_goldens in
  let r = H.run system ~local_mem ?fault_spec ~fault_seed:3 f in
  Test_determinism.check_counter_lists name counters
    (Sim.Stats.counters r.H.run_stats);
  check_i64 (name ^ ": elapsed") elapsed r.H.elapsed

let seq_kernel ctx = ignore (Apps.Seq.run ctx ~size_bytes:(2 * 1024 * 1024) ~mode:Apps.Seq.Read)
let sort_kernel ctx = ignore (Apps.Quicksort.run ctx ~n:120_000 ~seed:42)

let lrange_kernel ctx =
  ignore (Apps.Redis_guide.install ctx);
  ignore
    (Apps.Redis_bench.run_lrange ctx ~lists:16 ~elements:3_000 ~elem_size:256
       ~queries:16 ~range:50 ~seed:5)

let kernel_cases =
  List.concat_map
    (fun (fname, fault_spec) ->
      [
        quick
          (Printf.sprintf "seqread dilos counters identical (%s)" fname)
          (kernel_equivalence "seqread" (H.Dilos Dilos.Kernel.Readahead)
             ~local_mem:(256 * 1024) ~fault_spec seq_kernel);
        quick
          (Printf.sprintf "quicksort dilos counters identical (%s)" fname)
          (kernel_equivalence "quicksort" (H.Dilos Dilos.Kernel.Readahead)
             ~local_mem:(64 * 1024) ~fault_spec sort_kernel);
        quick
          (Printf.sprintf "seqread fastswap counters identical (%s)" fname)
          (kernel_equivalence "fastswap" H.Fastswap ~local_mem:(256 * 1024)
             ~fault_spec seq_kernel);
        quick
          (Printf.sprintf "lrange guided counters identical (%s)" fname)
          (kernel_equivalence "lrange" (H.Dilos_guided Dilos.Kernel.Readahead)
             ~local_mem:(256 * 1024) ~fault_spec lrange_kernel);
      ])
    [ ("clean", None); ("flaky", Some Faults.Spec.flaky) ]

let suite =
  [
    QCheck_alcotest.to_alcotest bigbuf_roundtrip;
    QCheck_alcotest.to_alcotest bigbuf_bytes_blits;
    QCheck_alcotest.to_alcotest bigbuf_bulk_model;
    quick "bigbuf bulk ops allocate nothing" bigbuf_bulk_no_alloc;
    quick "bigbuf used on zero-heavy shapes" bigbuf_used_shapes;
    quick "bigbuf create reads zero across the mapping threshold" create_reads_zero;
    quick "bigbuf mapped slabs are unmapped when collected" mapped_slabs_unmapped;
    quick "qp extent == per-page posting (clean)" qp_extent_clean;
    quick "qp extent == per-page posting (flaky)" qp_extent_flaky;
    quick "qp pages validated before any is posted" qp_pages_validate_first;
  ]
  @ kernel_cases
