open Util

(* QP buffers are off-heap slabs now; small helpers for string
   round-trips in assertions. *)
let bb = Sim.Bigbuf.of_string

let bb_str b =
  Bytes.to_string (Sim.Bigbuf.to_bytes b ~off:0 ~len:(Sim.Bigbuf.length b))

let bb_make n c =
  let b = Sim.Bigbuf.create n in
  Sim.Bigbuf.fill b ~off:0 ~len:n c;
  b

let mk_fabric eng ?nic_config ?huge_pages ?extra_completion_delay ?stats () =
  let store = Memnode.Page_store.create ~size:(Int64.of_int (1 lsl 24)) in
  let fabric =
    Rdma.Fabric.connect ~eng ?nic_config ?huge_pages ?extra_completion_delay
      ?stats
      ~target:(Memnode.Page_store.target store)
      ~size:(Int64.of_int (1 lsl 24))
      ()
  in
  (store, fabric)

(* ------------------------------------------------------------------ *)
(* NIC latency model *)

let nic_monotone_in_size () =
  let nic = Rdma.Nic.create () in
  let lat n =
    Rdma.Nic.latency nic Rdma.Nic.Read ~bytes_:n ~segments:1 ~huge_pages:true
  in
  check_bool "128B < 4K" true (Int64.compare (lat 128) (lat 4096) < 0);
  check_bool "4K < 64K" true (Int64.compare (lat 4096) (lat 65536) < 0)

let nic_fig2_calibration () =
  (* Paper Fig. 2: a 4 KiB fetch costs only ~0.6 us more than 128 B. *)
  let nic = Rdma.Nic.create () in
  let lat n =
    Sim.Time.to_us
      (Rdma.Nic.latency nic Rdma.Nic.Read ~bytes_:n ~segments:1 ~huge_pages:true)
  in
  let gap = lat 4096 -. lat 128 in
  check_bool (Printf.sprintf "gap=%.2fus in [0.4,0.8]" gap) true
    (gap > 0.4 && gap < 0.8);
  check_bool "4K read is 2-3us" true (lat 4096 > 2.0 && lat 4096 < 3.2)

let nic_long_vector_penalty () =
  let nic = Rdma.Nic.create () in
  let lat segs =
    Rdma.Nic.latency nic Rdma.Nic.Write ~bytes_:1024 ~segments:segs
      ~huge_pages:true
  in
  let step23 = Int64.sub (lat 3) (lat 2) in
  let step34 = Int64.sub (lat 4) (lat 3) in
  check_bool "4th segment much more expensive" true
    (Int64.compare step34 (Int64.mul step23 3L) > 0)

let nic_huge_page_benefit () =
  let nic = Rdma.Nic.create () in
  let with_hp =
    Rdma.Nic.latency nic Rdma.Nic.Read ~bytes_:4096 ~segments:1 ~huge_pages:true
  in
  let without =
    Rdma.Nic.latency nic Rdma.Nic.Read ~bytes_:4096 ~segments:1 ~huge_pages:false
  in
  check_bool "huge pages faster" true (Int64.compare with_hp without < 0)

(* ------------------------------------------------------------------ *)
(* Region protection *)

let region_checks () =
  let r = Rdma.Region.make ~rkey:42 ~base:0x1000L ~len:0x1000L in
  Rdma.Region.check r ~rkey:42 ~addr:0x1000L ~len:4096;
  Alcotest.check_raises "bad rkey"
    (Rdma.Region.Protection_fault "bad rkey 7 (expected 42)") (fun () ->
      Rdma.Region.check r ~rkey:7 ~addr:0x1000L ~len:8);
  (try
     Rdma.Region.check r ~rkey:42 ~addr:0x1FFFL ~len:2;
     Alcotest.fail "expected protection fault"
   with Rdma.Region.Protection_fault _ -> ())

(* ------------------------------------------------------------------ *)
(* QP data movement *)

let qp_write_read_roundtrip () =
  run_sim (fun eng ->
      let store, fabric = mk_fabric eng () in
      ignore store;
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let src = bb "hello rdma world" in
      Rdma.Qp.write qp ~raddr:0x2000L ~buf:src ~off:0 ~len:16;
      let dst = Sim.Bigbuf.create 16 in
      Rdma.Qp.read qp ~raddr:0x2000L ~buf:dst ~off:0 ~len:16;
      Alcotest.(check string) "roundtrip" "hello rdma world" (bb_str dst))

let qp_write_snapshot_semantics () =
  (* The payload is captured at post time: mutating the buffer after
     posting must not corrupt the transfer. *)
  run_sim (fun eng ->
      let _store, fabric = mk_fabric eng () in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let buf = bb "AAAA" in
      Rdma.Qp.post_write qp
        ~segs:[ { Rdma.Qp.raddr = 0L; loff = 0; len = 4 } ]
        ~buf
        ~on_complete:(fun () -> ());
      Sim.Bigbuf.fill buf ~off:0 ~len:4 'B';
      Sim.Engine.sleep eng (Sim.Time.us 100);
      let dst = Sim.Bigbuf.create 4 in
      Rdma.Qp.read qp ~raddr:0L ~buf:dst ~off:0 ~len:4;
      Alcotest.(check string) "snapshot" "AAAA" (bb_str dst))

let qp_vector_ops () =
  run_sim (fun eng ->
      let _store, fabric = mk_fabric eng () in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let segs =
        [
          { Rdma.Qp.raddr = 0x100L; loff = 0; len = 4 };
          { Rdma.Qp.raddr = 0x200L; loff = 8; len = 4 };
        ]
      in
      let buf = bb "0123456789abcdef" in
      Sim.Engine.suspend eng (fun wake ->
          Rdma.Qp.post_write qp ~segs ~buf ~on_complete:wake);
      let dst = bb_make 16 '.' in
      Sim.Engine.suspend eng (fun wake ->
          Rdma.Qp.post_read qp ~segs ~buf:dst ~on_complete:wake);
      Alcotest.(check string) "scatter/gather" "0123....89ab...." (bb_str dst))

let qp_single_read_latency () =
  let elapsed =
    run_sim (fun eng ->
        let _store, fabric = mk_fabric eng () in
        let qp = Rdma.Fabric.qp fabric ~name:"t" in
        let t0 = Sim.Engine.now eng in
        let dst = Sim.Bigbuf.create 4096 in
        Rdma.Qp.read qp ~raddr:0L ~buf:dst ~off:0 ~len:4096;
        Sim.Time.to_us (Sim.Time.sub (Sim.Engine.now eng) t0))
  in
  check_bool (Printf.sprintf "4K read ~2.8us (got %.2f)" elapsed) true
    (elapsed > 2.2 && elapsed < 3.4)

let qp_pipelining () =
  (* 16 outstanding 4K reads on one QP should take far less than 16x
     a single read's latency (bandwidth-bound, not latency-bound). *)
  let elapsed =
    run_sim (fun eng ->
        let _store, fabric = mk_fabric eng () in
        let qp = Rdma.Fabric.qp fabric ~name:"t" in
        let t0 = Sim.Engine.now eng in
        let remaining = ref 16 in
        let buf = Sim.Bigbuf.create 4096 in
        for i = 0 to 15 do
          Rdma.Qp.post_read qp
            ~segs:
              [
                {
                  Rdma.Qp.raddr = Int64.of_int (i * 4096);
                  loff = 0;
                  len = 4096;
                };
              ]
            ~buf
            ~on_complete:(fun () -> decr remaining)
        done;
        Sim.Engine.suspend eng (fun wake ->
            let rec poll () =
              if !remaining = 0 then wake ()
              else Sim.Engine.after eng (Sim.Time.us 1) poll
            in
            poll ());
        Sim.Time.to_us (Sim.Time.sub (Sim.Engine.now eng) t0))
  in
  check_bool (Printf.sprintf "pipelined (%.1fus < 20us)" elapsed) true
    (elapsed < 20.)

let qp_tcp_emulation_delay () =
  let base =
    run_sim (fun eng ->
        let _s, fabric = mk_fabric eng () in
        let qp = Rdma.Fabric.qp fabric ~name:"t" in
        let t0 = Sim.Engine.now eng in
        let b = Sim.Bigbuf.create 4096 in
        Rdma.Qp.read qp ~raddr:0L ~buf:b ~off:0 ~len:4096;
        Sim.Time.sub (Sim.Engine.now eng) t0)
  in
  let delayed =
    run_sim (fun eng ->
        let _s, fabric =
          mk_fabric eng
            ~extra_completion_delay:Dilos.Params.tcp_emulation_delay ()
        in
        let qp = Rdma.Fabric.qp fabric ~name:"t" in
        let t0 = Sim.Engine.now eng in
        let b = Sim.Bigbuf.create 4096 in
        Rdma.Qp.read qp ~raddr:0L ~buf:b ~off:0 ~len:4096;
        Sim.Time.sub (Sim.Engine.now eng) t0)
  in
  let gap = Sim.Time.to_us (Sim.Time.sub delayed base) in
  (* 14,000 cycles at 2.3 GHz is ~6.09 us. *)
  check_bool (Printf.sprintf "tcp delay ~6us (got %.2f)" gap) true
    (gap > 5.9 && gap < 6.3)

let qp_protection_enforced () =
  run_sim (fun eng ->
      let _s, fabric = mk_fabric eng () in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let b = Sim.Bigbuf.create 8 in
      try
        Rdma.Qp.read qp ~raddr:(Int64.of_int ((1 lsl 24) - 4)) ~buf:b ~off:0 ~len:8;
        Alcotest.fail "expected protection fault"
      with Rdma.Region.Protection_fault _ -> ())

let qp_stats_counted () =
  run_sim (fun eng ->
      let stats = Sim.Stats.create () in
      let _s, fabric = mk_fabric eng ~stats () in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let b = Sim.Bigbuf.create 4096 in
      Rdma.Qp.read qp ~raddr:0L ~buf:b ~off:0 ~len:4096;
      Rdma.Qp.write qp ~raddr:0L ~buf:b ~off:0 ~len:128;
      check_int "reads" 1 (Sim.Stats.get stats "rdma_reads");
      check_int "read bytes" 4096 (Sim.Stats.get stats "rdma_read_bytes");
      check_int "writes" 1 (Sim.Stats.get stats "rdma_writes");
      check_int "write bytes" 128 (Sim.Stats.get stats "rdma_write_bytes"))

(* ------------------------------------------------------------------ *)
(* Bandwidth meter *)

let bandwidth_buckets () =
  let eng = Sim.Engine.create () in
  let bw = Rdma.Bandwidth.create ~bucket:(Sim.Time.us 10) eng in
  Rdma.Bandwidth.record bw Rdma.Bandwidth.Rx 100;
  Sim.Engine.at eng (Sim.Time.us 25) (fun () ->
      Rdma.Bandwidth.record bw Rdma.Bandwidth.Tx 50);
  Sim.Engine.run eng;
  check_int "rx total" 100 (Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx);
  check_int "tx total" 50 (Rdma.Bandwidth.total bw Rdma.Bandwidth.Tx);
  match Rdma.Bandwidth.series bw with
  | [ (t1, rx1, tx1); (t2, rx2, tx2) ] ->
      check_i64 "bucket 0" 0L t1;
      check_int "bucket 0 rx" 100 rx1;
      check_int "bucket 0 tx" 0 tx1;
      check_i64 "bucket 2" (Sim.Time.us 20) t2;
      check_int "bucket 2 rx" 0 rx2;
      check_int "bucket 2 tx" 50 tx2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 buckets, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Page store *)

module Ps = Memnode.Page_store

let store_zero_fill () =
  let s = Ps.create ~size:65536L in
  let b = bb_make 16 'x' in
  Ps.read s ~addr:100L ~dst:b ~off:0 ~len:16;
  Alcotest.(check string) "never-written reads zero" (String.make 16 '\000')
    (bb_str b)

let store_cross_block () =
  let s = Ps.create ~size:65536L in
  let src = bb (String.init 100 (fun i -> Char.chr (i land 0xFF))) in
  (* Write a range straddling the 4 KiB block boundary. *)
  Ps.write s ~addr:4070L ~src ~off:0 ~len:100;
  let dst = Sim.Bigbuf.create 100 in
  Ps.read s ~addr:4070L ~dst ~off:0 ~len:100;
  Alcotest.(check string) "cross-block roundtrip" (bb_str src) (bb_str dst);
  check_int "two blocks materialized" 2 (Ps.resident_blocks s)

let store_bounds () =
  let s = Ps.create ~size:4096L in
  let b = Sim.Bigbuf.create 8 in
  Alcotest.(check_raises) "oob"
    (Invalid_argument "Page_store: range [0x1000,+8) out of bounds") (fun () ->
      Ps.read s ~addr:4096L ~dst:b ~off:0 ~len:8)

let touched s =
  let l = ref [] in
  Ps.iter_touched s (fun blk -> l := blk :: !l);
  List.rev !l

(* 2^50 bytes is past the x86-64 user address space: the store must
   hold only what was written, not reserve its size. *)
let store_is_sparse () =
  let s = Ps.create ~size:(Int64.shift_left 1L 50) in
  let at = Int64.shift_left 1L 36 in
  let page = bb_make 4096 'p' in
  Ps.write s ~addr:at ~src:page ~off:0 ~len:4096;
  let back = bb_make 4096 'x' in
  Ps.read s ~addr:at ~dst:back ~off:0 ~len:4096;
  Alcotest.(check string) "page at 64 GiB round-trips" (bb_str page) (bb_str back);
  check_int "one block resident" 1 (Ps.resident_blocks s);
  Alcotest.(check (list int)) "touched" [ 1 lsl 24 ] (touched s);
  List.iter
    (fun addr ->
      let b = bb_make 4096 'x' in
      Ps.read s ~addr ~dst:b ~off:0 ~len:4096;
      Alcotest.(check string)
        (Printf.sprintf "unwritten 0x%Lx reads zero" addr)
        (String.make 4096 '\000') (bb_str b))
    [
      0L;
      Int64.sub at 4096L;
      Int64.add at 4096L;
      Int64.sub (Int64.shift_left 1L 50) 4096L;
    ]

(* A dropped block reads as zeros, and its space goes to the next
   block first written: a partial write there must not show what the
   dropped block held. *)
let store_drop_partial_rewrite () =
  let s = Ps.create ~size:65536L in
  Ps.write s ~addr:(Int64.of_int (4096 + 100)) ~src:(bb_make 3000 'a') ~off:0 ~len:3000;
  Ps.drop s 1;
  check_bool "dropped block not resident" false (Ps.mem s 1);
  check_int "nothing resident" 0 (Ps.resident_blocks s);
  Ps.drop s 1;
  check_int "dropping an absent block is a no-op" 0 (Ps.resident_blocks s);
  let back = bb_make 4096 'x' in
  Ps.read s ~addr:4096L ~dst:back ~off:0 ~len:4096;
  Alcotest.(check string) "dropped block reads zero" (String.make 4096 '\000') (bb_str back);
  Ps.write s ~addr:(Int64.of_int ((2 * 4096) + 2000)) ~src:(bb_make 16 'b') ~off:0 ~len:16;
  Ps.read s ~addr:(Int64.of_int (2 * 4096)) ~dst:back ~off:0 ~len:4096;
  let want = Bytes.make 4096 '\000' in
  Bytes.fill want 2000 16 'b';
  Alcotest.(check string) "only the new write shows" (Bytes.to_string want) (bb_str back);
  check_int "one block resident" 1 (Ps.resident_blocks s);
  Alcotest.(check (list int)) "touched" [ 2 ] (touched s)

(* [equal] compares a staged payload in place, against zeros where
   nothing was written. *)
let store_equal_in_place () =
  let s = Ps.create ~size:65536L in
  let staged b ~off ~len = Ps.stage s ~src:b ~off ~len in
  let zeros = staged (bb_make 50 '\000') ~off:0 ~len:50
  and qs = staged (bb_make 50 'q') ~off:0 ~len:50 in
  check_bool "absent block equals zeros" true (Ps.equal s 3 ~inb:100 zeros ~soff:0 ~len:50);
  check_bool "absent block differs from nonzero" false
    (Ps.equal s 3 ~inb:100 qs ~soff:0 ~len:50);
  Ps.write s ~addr:(Int64.of_int ((3 * 4096) + 100)) ~src:(bb_make 50 'q') ~off:0 ~len:50;
  let src = staged (bb_make 60 'q') ~off:0 ~len:60 in
  check_bool "written span equals" true (Ps.equal s 3 ~inb:100 src ~soff:10 ~len:50);
  check_bool "one byte past differs" false (Ps.equal s 3 ~inb:101 src ~soff:0 ~len:50);
  check_bool "zeros past the staged slot compare" true
    (Ps.equal s 4 ~inb:0 zeros ~soff:0 ~len:4096);
  Alcotest.check_raises "span leaving its block"
    (Invalid_argument "Page_store.equal: span leaves its block or the store")
    (fun () -> ignore (Ps.equal s 3 ~inb:4090 src ~soff:0 ~len:10));
  Alcotest.check_raises "span past the store"
    (Invalid_argument "Page_store.equal: span leaves its block or the store")
    (fun () -> ignore (Ps.equal s 16 ~inb:0 src ~soff:0 ~len:1));
  List.iter (Ps.unstage s) [ zeros; qs; src ];
  check_int "nothing staged" 0 (Ps.staged s)

(* One nonzero word per page (a sequential overwrite's pages) takes a
   64 B slot, not a 4 KiB block; a dense rewrite grows every block to
   4 KiB and a sparse rewrite shrinks it back. Every read stays
   byte-exact throughout. *)
let store_holds_used_length () =
  let pages = 4096 in
  let s = Ps.create ~size:(Int64.of_int (pages * 4096)) in
  let page = Sim.Bigbuf.create 4096 and back = Sim.Bigbuf.create 4096 in
  let sparse p =
    Sim.Bigbuf.fill page ~off:0 ~len:4096 '\000';
    Sim.Bigbuf.set_u64_le page ((p land 7) * 8) (Int64.of_int (p + 1))
  in
  let dense p = Sim.Bigbuf.fill page ~off:0 ~len:4096 (Char.chr (1 + (p land 0x7F))) in
  let pass what shape =
    for p = 0 to pages - 1 do
      shape p;
      Ps.write s ~addr:(Int64.of_int (p * 4096)) ~src:page ~off:0 ~len:4096
    done;
    for p = 0 to pages - 1 do
      shape p;
      Ps.read s ~addr:(Int64.of_int (p * 4096)) ~dst:back ~off:0 ~len:4096;
      if not (Sim.Bigbuf.equal_range page ~a_off:0 back ~b_off:0 ~len:4096) then
        Alcotest.failf "%s: page %d reads back wrong" what p
    done;
    check_int (what ^ ": every page resident") pages (Ps.resident_blocks s)
  in
  pass "sparse" sparse;
  check_bool
    (Printf.sprintf "sparse pages hold %d bytes <= 64 each" (Ps.held_bytes s))
    true
    (Ps.held_bytes s <= pages * 64);
  pass "dense rewrite" dense;
  check_int "dense rewrite holds 4 KiB each" (pages * 4096) (Ps.held_bytes s);
  pass "sparse rewrite" sparse;
  check_bool
    (Printf.sprintf "sparse rewrite shrinks back to %d bytes" (Ps.held_bytes s))
    true
    (Ps.held_bytes s <= pages * 64)

(* Random write/read/drop/equal sequences against a [Bytes]
   reference. The store spans three 2 MiB leaves; ranges start near
   block and leaf boundaries, so they are often partial, cross a block
   or cross a leaf, and a few hot blocks take most of the traffic, so
   the same block is rewritten, dropped and written again. Payloads
   are zero-heavy, as pages are: all zero, one nonzero word, a dense
   prefix with a zero tail, or dense. So blocks change class: a
   partial write reaching past its slot promotes it, a whole-block
   rewrite re-classes it (often shrinking it), and released slots are
   reused. The model tracks each block's class by the store's rule,
   and [held_bytes] must match it. *)
type shape = Zero | Word of int | Prefix of int | Dense

type store_op =
  | Write of int * int * shape * int * bool (* staged and landed, as a QP does *)
  | Abandon of int * shape (* stage [len] bytes, then unstage them *)
  | Read of int * int
  | Drop of int
  | Equal of int * int * int * int option

let leaf = 2 lsl 20
let store_size = 3 * leaf

let store_op_gen =
  let open QCheck.Gen in
  let block =
    frequency
      [
        (3, int_bound 7);
        (1, int_bound ((store_size / 4096) - 1));
        (1, oneofl [ (leaf / 4096) - 1; leaf / 4096; 2 * leaf / 4096 ]);
      ]
  in
  let addr =
    map2
      (fun blk delta -> Int.max 0 (Int.min (store_size - 1) ((blk * 4096) + delta)))
      block
      (frequency [ (2, return 0); (3, int_range (-5000) 5000) ])
  in
  let range =
    map2 (fun a len -> (a, Int.min len (store_size - a))) addr
      (frequency [ (3, int_bound 10000); (2, int_bound 300) ])
  in
  let shape =
    frequency
      [
        (1, return Zero);
        (2, map (fun o -> Word o) (int_bound 4095));
        (2, map (fun p -> Prefix p) (int_bound 4095));
        (1, return Dense);
      ]
  in
  frequency
    [
      ( 5,
        map4
          (fun (a, len) sh seed st -> Write (a, len, sh, seed, st))
          range shape (int_bound 255) bool );
      ( 3,
        map4
          (fun blk sh seed st -> Write (blk * 4096, 4096, sh, seed, st))
          block shape (int_bound 255) bool );
      (1, map2 (fun len sh -> Abandon (len, sh)) (int_bound 4096) shape);
      (4, map (fun (a, len) -> Read (a, len)) range);
      (2, map (fun a -> Drop (a / 4096)) addr);
      ( 3,
        block >>= fun blk ->
        int_bound 4095 >>= fun inb ->
        int_bound (4096 - inb) >>= fun len ->
        map (fun flip -> Equal (blk, inb, len, flip)) (opt (int_bound (Int.max 0 (len - 1)))) );
    ]

let print_shape = function
  | Zero -> "zero"
  | Word o -> Printf.sprintf "word@%d" o
  | Prefix p -> Printf.sprintf "prefix%d" p
  | Dense -> "dense"

let print_store_op = function
  | Write (a, len, sh, seed, st) ->
      Printf.sprintf "%s(%#x,+%d,%s,%d)"
        (if st then "Staged_write" else "Write")
        a len (print_shape sh) seed
  | Abandon (len, sh) -> Printf.sprintf "Abandon(+%d,%s)" len (print_shape sh)
  | Read (a, len) -> Printf.sprintf "Read(%#x,+%d)" a len
  | Drop blk -> Printf.sprintf "Drop(%d)" blk
  | Equal (blk, inb, len, flip) ->
      Printf.sprintf "Equal(%d,%d,+%d,%s)" blk inb len
        (match flip with None -> "-" | Some i -> string_of_int i)

(* A write's bytes: never zero where the shape says nonzero. A word
   sits at [o mod len], as far as it fits. *)
let shape_bytes sh len seed =
  let nz i = Char.chr (1 + ((seed + (i * 7)) mod 255)) in
  let b = Bytes.make len '\000' in
  (match sh with
  | Zero -> ()
  | Word o when len > 0 ->
      let o = o mod len in
      for i = o to Int.min (len - 1) (o + 7) do
        Bytes.set b i (nz i)
      done
  | Word _ -> ()
  | Prefix p ->
      for i = 0 to Int.min len p - 1 do
        Bytes.set b i (nz i)
      done
  | Dense -> Bytes.iteri (fun i _ -> Bytes.set b i (nz i)) b);
  b

(* The store's class rule, for the model: the smallest of 64, 256,
   1,024 or 4,096 bytes covering a used length. *)
let class_bytes used = if used <= 64 then 64 else if used <= 256 then 256 else if used <= 1024 then 1024 else 4096

(* A write as a QP lands one: each piece inside a block staged, then
   landed in order. *)
let rec staged_write s a src off len =
  if len > 0 then begin
    let n = Int.min len (4096 - (a land 4095)) in
    let h = Ps.stage s ~src ~off ~len:n in
    Ps.land_staged s ~addr:(Int64.of_int a) h ~len:n;
    staged_write s (a + n) src (off + n) (len - n)
  end

let page_store_model =
  QCheck.Test.make ~name:"page store matches Bytes reference model" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print_store_op)
       QCheck.Gen.(list_size (int_range 1 60) store_op_gen))
    (fun ops ->
      let s = Ps.create ~size:(Int64.of_int store_size) in
      let ref_ = Bytes.make store_size '\000' in
      (* 0: not resident; else the capacity of the block's slot *)
      let cap = Array.make (store_size / 4096) 0 in
      List.for_all
        (fun op ->
          let op_ok =
            match op with
            | Write (a, len, sh, seed, st) ->
                let b = shape_bytes sh len seed in
                Bytes.blit b 0 ref_ a len;
                let rec classify a' =
                  if a' < a + len then begin
                    let blk = a' / 4096 and inb = a' land 4095 in
                    let n = Int.min (a + len - a') (4096 - inb) in
                    let u =
                      let rec go k = if k > 0 && Bytes.get b (a' - a + k - 1) = '\000' then go (k - 1) else k in
                      go n
                    in
                    let reach = if u = 0 then 0 else inb + u in
                    if n = 4096 || cap.(blk) = 0 || reach > cap.(blk) then
                      cap.(blk) <- class_bytes reach;
                    classify (a' + n)
                  end
                in
                classify a;
                let src = Sim.Bigbuf.of_string (Bytes.to_string b) in
                if st then staged_write s a src 0 len
                else Ps.write s ~addr:(Int64.of_int a) ~src ~off:0 ~len;
                true
            | Abandon (len, sh) ->
                Ps.unstage s
                  (Ps.stage s
                     ~src:(Sim.Bigbuf.of_string (Bytes.to_string (shape_bytes sh len 1)))
                     ~off:0 ~len);
                true
            | Read (a, len) ->
                let dst = bb_make len 'x' in
                Ps.read s ~addr:(Int64.of_int a) ~dst ~off:0 ~len;
                String.equal (bb_str dst) (Bytes.sub_string ref_ a len)
            | Drop blk ->
                Ps.drop s blk;
                Bytes.fill ref_ (blk * 4096) 4096 '\000';
                cap.(blk) <- 0;
                true
            | Equal (blk, inb, len, flip) ->
                let src = Bytes.make (len + 3) 'L' in
                Bytes.blit ref_ ((blk * 4096) + inb) src 3 len;
                Option.iter
                  (fun i ->
                    if i < len then
                      Bytes.set src (3 + i) (Char.chr (Char.code (Bytes.get src (3 + i)) lxor 1)))
                  flip;
                let want =
                  String.equal (Bytes.sub_string src 3 len)
                    (Bytes.sub_string ref_ ((blk * 4096) + inb) len)
                in
                (* Staged behind up to three bytes of the lead, so
                   [~off] and [~soff] are exercised too. *)
                let lead = Int.min 3 (4096 - len) in
                let h =
                  Ps.stage s ~src:(Sim.Bigbuf.of_string (Bytes.to_string src))
                    ~off:(3 - lead) ~len:(lead + len)
                in
                let got = Ps.equal s blk ~inb h ~soff:lead ~len in
                Ps.unstage s h;
                Bool.equal want got
          in
          let expect =
            List.filter (fun b -> cap.(b) > 0) (List.init (Array.length cap) Fun.id)
          in
          op_ok
          && Int.equal (Ps.staged s) 0
          && Int.equal (Ps.resident_blocks s) (List.length expect)
          && Int.equal (Ps.held_bytes s) (Array.fold_left ( + ) 0 cap)
          && List.equal Int.equal (touched s) expect)
        ops)

(* WRITEs through a QP, all posted before any completes: one to eight
   WRs of one to three segments each, crossing block boundaries,
   spanning several pages, and overlapping each other. Each WR's
   payload is captured at post (the source is scrambled right after),
   and WRs of different sizes complete out of post order, so the model
   applies each payload when its [on_complete] runs. The store must
   then equal the model byte for byte with nothing left staged, behind
   a plain store and behind replica groups at one and two copies. *)
let qp_write_gen =
  let open QCheck.Gen in
  let region = 8 * 4096 in
  let seg =
    int_bound (region - 1) >>= fun raddr ->
    frequency [ (3, int_bound 300); (2, int_range 4000 9000); (1, return 4096) ] >>= fun len ->
    let len = Int.min len (region - raddr) in
    map (fun loff -> (raddr, loff, len)) (int_bound 256)
  in
  let shape =
    frequency
      [
        (1, return Zero);
        (2, map (fun o -> Word o) (int_bound 9000));
        (1, map (fun p -> Prefix p) (int_bound 9000));
        (1, return Dense);
      ]
  in
  list_size (int_range 1 8)
    (triple (list_size (int_range 1 3) seg) shape (int_bound 255))

let print_qp_writes =
  QCheck.Print.(
    list (fun (segs, sh, seed) ->
        Printf.sprintf "{%s %s %d}"
          (String.concat ","
             (List.map (fun (r, l, n) -> Printf.sprintf "%#x<-%d+%d" r l n) segs))
          (print_shape sh) seed))

let qp_writes_land_exactly =
  QCheck.Test.make ~name:"qp writes land byte-exact, nothing left staged" ~count:150
    (QCheck.make ~print:print_qp_writes qp_write_gen)
    (fun wrs ->
      let size = 8 * 4096 in
      List.for_all
        (fun topo ->
          run_sim (fun eng ->
              let store, target =
                match topo with
                | None ->
                    let s = Ps.create ~size:(Int64.of_int size) in
                    (s, Ps.target s)
                | Some replication ->
                    let g =
                      Memnode.Replica_group.create ~eng ~size:(Int64.of_int size)
                        ~config:
                          { Memnode.Replica_group.default_config with shards = 2; replication }
                        ()
                    in
                    (Memnode.Replica_group.store g, Memnode.Replica_group.target g)
              in
              let fabric =
                Rdma.Fabric.connect ~eng ~target ~size:(Int64.of_int size) ()
              in
              let qp = Rdma.Fabric.qp fabric ~name:"t" in
              let model = Bytes.make size '\000' in
              let src = Sim.Bigbuf.create (9000 + 256) in
              let landed = ref 0 in
              List.iter
                (fun (segs, sh, seed) ->
                  let payload = shape_bytes sh (Sim.Bigbuf.length src) seed in
                  Sim.Bigbuf.blit_from_bytes payload ~src_off:0 src ~dst_off:0
                    ~len:(Bytes.length payload);
                  let segs =
                    List.map (fun (raddr, loff, len) -> { Rdma.Qp.raddr = Int64.of_int raddr; loff; len }) segs
                  in
                  Rdma.Qp.post_write qp ~segs ~buf:src ~on_complete:(fun () ->
                      incr landed;
                      List.iter
                        (fun s ->
                          Bytes.blit payload s.Rdma.Qp.loff model
                            (Int64.to_int s.Rdma.Qp.raddr) s.Rdma.Qp.len)
                        segs);
                  Sim.Bigbuf.fill src ~off:0 ~len:(Sim.Bigbuf.length src) '\xff')
                wrs;
              Sim.Engine.sleep eng (Sim.Time.ms 1);
              let got = Sim.Bigbuf.create size in
              Ps.read store ~addr:0L ~dst:got ~off:0 ~len:size;
              Int.equal !landed (List.length wrs)
              && Int.equal (Ps.staged store) 0
              && String.equal (bb_str got) (Bytes.to_string model)))
        [ None; Some 1; Some 2 ])

let suite =
  [
    quick "nic monotone in size" nic_monotone_in_size;
    quick "nic fig2 calibration" nic_fig2_calibration;
    quick "nic long vector penalty" nic_long_vector_penalty;
    quick "nic huge page benefit" nic_huge_page_benefit;
    quick "region protection checks" region_checks;
    quick "qp write/read roundtrip" qp_write_read_roundtrip;
    quick "qp write snapshots payload" qp_write_snapshot_semantics;
    quick "qp vector ops" qp_vector_ops;
    quick "qp single 4K read latency" qp_single_read_latency;
    quick "qp pipelines outstanding reads" qp_pipelining;
    quick "qp tcp emulation delay" qp_tcp_emulation_delay;
    quick "qp protection enforced" qp_protection_enforced;
    quick "qp stats counted" qp_stats_counted;
    quick "bandwidth meter buckets" bandwidth_buckets;
    quick "page store zero fill" store_zero_fill;
    quick "page store cross-block" store_cross_block;
    quick "page store is sparse" store_is_sparse;
    quick "page store bounds" store_bounds;
    quick "page store drop then partial rewrite" store_drop_partial_rewrite;
    quick "page store compares in place" store_equal_in_place;
    quick "page store holds a block at its used length" store_holds_used_length;
    QCheck_alcotest.to_alcotest page_store_model;
    QCheck_alcotest.to_alcotest qp_writes_land_exactly;
  ]
