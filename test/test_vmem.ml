open Util

(* ------------------------------------------------------------------ *)
(* Addr *)

let addr_basics () =
  check_int "page_size" 4096 Vmem.Addr.page_size;
  check_int "vpn" 3 (Vmem.Addr.vpn 0x3FFFL);
  check_i64 "base" 0x3000L (Vmem.Addr.base 3);
  check_int "offset" 0xFFF (Vmem.Addr.offset 0x3FFFL);
  check_bool "aligned" true (Vmem.Addr.is_page_aligned 0x2000L);
  check_bool "unaligned" false (Vmem.Addr.is_page_aligned 0x2001L);
  check_i64 "round_up" 0x3000L (Vmem.Addr.round_up 0x2001L);
  check_i64 "round_up exact" 0x2000L (Vmem.Addr.round_up 0x2000L)

let addr_pages_spanned () =
  check_int "zero" 0 (Vmem.Addr.pages_spanned 0x1000L 0);
  check_int "within" 1 (Vmem.Addr.pages_spanned 0x1000L 4096);
  check_int "crossing" 2 (Vmem.Addr.pages_spanned 0x1FFFL 2);
  check_int "three pages" 3 (Vmem.Addr.pages_spanned 0x1800L 8193)

(* ------------------------------------------------------------------ *)
(* Pte *)

let pte_tags () =
  let open Vmem.Pte in
  Alcotest.(check bool) "zero unmapped" true (tag zero = Unmapped);
  Alcotest.(check bool) "local" true (tag (make_local ~frame:5 ~writable:true) = Local);
  Alcotest.(check bool) "remote" true (tag (make_remote ()) = Remote);
  Alcotest.(check bool) "fetching" true (tag (make_fetching ()) = Fetching);
  Alcotest.(check bool) "action" true (tag (make_action ~payload:9) = Action)

let pte_fields () =
  let open Vmem.Pte in
  check_int "frame" 123 (frame (make_local ~frame:123 ~writable:false));
  check_int "payload" 77 (payload (make_action ~payload:77));
  check_bool "writable" true (writable (make_local ~frame:1 ~writable:true));
  check_bool "not writable" false (writable (make_local ~frame:1 ~writable:false))

let pte_ad_bits () =
  let open Vmem.Pte in
  let p = make_local ~frame:9 ~writable:true in
  check_bool "fresh not accessed" false (accessed p);
  let p = set_accessed p in
  check_bool "accessed" true (accessed p);
  check_bool "not dirty yet" false (dirty p);
  let p = set_dirty p in
  check_bool "dirty" true (dirty p);
  check_int "frame preserved" 9 (frame p);
  let p = clear_accessed (clear_dirty p) in
  check_bool "cleared A" false (accessed p);
  check_bool "cleared D" false (dirty p);
  Alcotest.(check bool) "still local" true (tag p = Vmem.Pte.Local)

let pte_tag_roundtrip_qcheck =
  QCheck.Test.make ~name:"pte frame roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFF)
    (fun f ->
      let p = Vmem.Pte.make_local ~frame:f ~writable:true in
      Vmem.Pte.frame (Vmem.Pte.set_dirty (Vmem.Pte.set_accessed p)) = f)

(* ------------------------------------------------------------------ *)
(* Page table *)

let pt_get_set () =
  let pt = Vmem.Page_table.create () in
  Alcotest.(check bool) "unmapped by default" true
    (Vmem.Page_table.get pt 12345 = Vmem.Pte.zero);
  Vmem.Page_table.set pt 12345 (Vmem.Pte.make_remote ());
  Alcotest.(check bool) "set/get" true
    (Vmem.Pte.tag (Vmem.Page_table.get pt 12345) = Vmem.Pte.Remote)

let pt_sparse_vpns () =
  let pt = Vmem.Page_table.create () in
  (* Entries far apart exercise all radix levels. *)
  let vpns = [ 0; 1; 511; 512; 513; 1 lsl 18; (1 lsl 27) + 42; (1 lsl 35) + 7 ] in
  List.iteri
    (fun i v -> Vmem.Page_table.set pt v (Vmem.Pte.make_local ~frame:i ~writable:true))
    vpns;
  List.iteri
    (fun i v -> check_int "frame back" i (Vmem.Pte.frame (Vmem.Page_table.get pt v)))
    vpns;
  check_int "count_mapped" (List.length vpns) (Vmem.Page_table.count_mapped pt)

let pt_update () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 7 (Vmem.Pte.make_local ~frame:1 ~writable:true);
  Vmem.Page_table.update pt 7 Vmem.Pte.set_dirty;
  check_bool "updated" true (Vmem.Pte.dirty (Vmem.Page_table.get pt 7))

let pt_iter_range () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 100 (Vmem.Pte.make_remote ());
  Vmem.Page_table.set pt 1000 (Vmem.Pte.make_remote ());
  let seen = ref [] in
  Vmem.Page_table.iter_range pt ~vpn:0 ~count:2000 (fun v p ->
      if p <> Vmem.Pte.zero then seen := v :: !seen);
  Alcotest.(check (list int)) "found mapped" [ 100; 1000 ] (List.rev !seen)

let pt_iter_range_counts_all () =
  let pt = Vmem.Page_table.create () in
  let visits = ref 0 in
  Vmem.Page_table.iter_range pt ~vpn:5 ~count:1500 (fun _ _ -> incr visits);
  check_int "visits every vpn" 1500 !visits

(* ------------------------------------------------------------------ *)
(* Frame allocator *)

let frame_alloc_free () =
  let f = Vmem.Frame.create ~frames:4 in
  check_int "total" 4 (Vmem.Frame.total f);
  let a = Vmem.Frame.alloc_exn f in
  let b = Vmem.Frame.alloc_exn f in
  check_bool "distinct" true (a <> b);
  check_int "free" 2 (Vmem.Frame.free_count f);
  Vmem.Frame.free f a;
  check_int "freed" 3 (Vmem.Frame.free_count f)

(* Freed frames come back last in, first out, before any frame never
   used, and frames never used come in ascending order. *)
let frame_allocation_order () =
  let f = Vmem.Frame.create ~frames:8 in
  let take n = List.init n (fun _ -> Vmem.Frame.alloc_exn f) in
  Alcotest.(check (list int)) "fresh frames ascending" [ 0; 1; 2; 3 ] (take 4);
  Vmem.Frame.free f 1;
  Vmem.Frame.free f 3;
  check_int "free count" 6 (Vmem.Frame.free_count f);
  Alcotest.(check (list int)) "freed LIFO, then fresh" [ 3; 1; 4; 5 ] (take 4);
  check_int "two left" 2 (Vmem.Frame.free_count f)

let frame_exhaustion () =
  let f = Vmem.Frame.create ~frames:2 in
  ignore (Vmem.Frame.alloc_exn f);
  ignore (Vmem.Frame.alloc_exn f);
  Alcotest.(check (option int)) "exhausted" None (Vmem.Frame.alloc f)

let frame_double_free_rejected () =
  let f = Vmem.Frame.create ~frames:2 in
  let a = Vmem.Frame.alloc_exn f in
  Vmem.Frame.free f a;
  Alcotest.check_raises "double free" (Invalid_argument "Frame.free: double free")
    (fun () -> Vmem.Frame.free f a)

(* 2^50 bytes of frames is past the x86-64 user address space, so
   every host refuses it; so is 2^40 frames (4 PiB), which the kernel
   refuses as a mapping at once, touching no memory. *)
let frame_oversized_names_the_knob () =
  check_failure_mentions "frame pool" [ "1125899906842624"; "local memory size" ]
    (fun () -> Vmem.Frame.create ~frames:(1 lsl 50 / Vmem.Addr.page_size));
  check_failure_mentions "2^40 frames" [ "local_mem"; "lower the local memory size" ]
    (fun () -> Vmem.Frame.create ~frames:(1 lsl 40))

let frame_recycled_dirty () =
  (* Frames recycle WITHOUT zeroing: every fetch path overwrites the
     bytes it maps, and the zero-fill fault path clears explicitly via
     [fill_page]. The old alloc-time memset was pure host-side waste. *)
  let f = Vmem.Frame.create ~frames:1 in
  let a = Vmem.Frame.alloc_exn f in
  let slab = Vmem.Frame.slab f in
  Sim.Bigbuf.set_u8 slab (Vmem.Frame.offset f a + 100) (Char.code 'x');
  Vmem.Frame.free f a;
  let b = Vmem.Frame.alloc_exn f in
  check_int "same frame recycled" a b;
  check_int "recycled dirty (no alloc-time zeroing)" (Char.code 'x')
    (Sim.Bigbuf.get_u8 slab (Vmem.Frame.offset f b + 100));
  Vmem.Frame.fill_page f b '\000';
  check_int "fill_page zeroes explicitly" 0
    (Sim.Bigbuf.get_u8 slab (Vmem.Frame.offset f b + 100))

(* ------------------------------------------------------------------ *)
(* MMU *)

let mmu_access_sets_bits () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 3 (Vmem.Pte.make_local ~frame:0 ~writable:true);
  (match Vmem.Mmu.access pt ~vpn:3 ~write:false with
  | Vmem.Mmu.Frame 0 -> ()
  | _ -> Alcotest.fail "expected frame 0");
  let p = Vmem.Page_table.get pt 3 in
  check_bool "accessed set" true (Vmem.Pte.accessed p);
  check_bool "dirty clear after read" false (Vmem.Pte.dirty p);
  ignore (Vmem.Mmu.access pt ~vpn:3 ~write:true);
  check_bool "dirty set after write" true (Vmem.Pte.dirty (Vmem.Page_table.get pt 3))

let mmu_fault_on_remote () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 8 (Vmem.Pte.make_remote ());
  match Vmem.Mmu.access pt ~vpn:8 ~write:false with
  | Vmem.Mmu.Fault p -> Alcotest.(check bool) "remote tag" true (Vmem.Pte.tag p = Vmem.Pte.Remote)
  | Vmem.Mmu.Frame _ -> Alcotest.fail "expected fault"

(* ------------------------------------------------------------------ *)
(* Address space *)

let aspace_mmap_layout () =
  let a = Vmem.Address_space.create () in
  let r1 = Vmem.Address_space.mmap a ~len:10_000 ~ddc:true () in
  let r2 = Vmem.Address_space.mmap a ~len:4096 ~ddc:false () in
  check_bool "aligned" true (Vmem.Addr.is_page_aligned r1);
  check_bool "disjoint with guard" true
    (Int64.compare r2 (Int64.add r1 (Int64.of_int 12288)) >= 0);
  check_bool "ddc flag" true (Vmem.Address_space.is_ddc a r1);
  check_bool "non-ddc flag" false (Vmem.Address_space.is_ddc a r2)

let aspace_find () =
  let a = Vmem.Address_space.create () in
  let r = Vmem.Address_space.mmap a ~len:8192 ~ddc:true () in
  (match Vmem.Address_space.find a (Int64.add r 8191L) with
  | Some v -> check_i64 "vma base" r v.Vmem.Address_space.base
  | None -> Alcotest.fail "should be mapped");
  Alcotest.(check bool) "guard unmapped" true
    (Vmem.Address_space.find a (Int64.add r 8192L) = None)

let aspace_munmap () =
  let a = Vmem.Address_space.create () in
  let r = Vmem.Address_space.mmap a ~len:4096 ~ddc:true () in
  let v = Vmem.Address_space.munmap a r in
  check_i64 "returned vma" r v.Vmem.Address_space.base;
  Alcotest.(check bool) "gone" true (Vmem.Address_space.find a r = None);
  Alcotest.check_raises "double munmap" Not_found (fun () ->
      ignore (Vmem.Address_space.munmap a r))

let suite =
  [
    quick "addr basics" addr_basics;
    quick "addr pages_spanned" addr_pages_spanned;
    quick "pte tags" pte_tags;
    quick "pte fields" pte_fields;
    quick "pte A/D bits" pte_ad_bits;
    QCheck_alcotest.to_alcotest pte_tag_roundtrip_qcheck;
    quick "page table get/set" pt_get_set;
    quick "page table sparse vpns" pt_sparse_vpns;
    quick "page table update" pt_update;
    quick "page table iter_range" pt_iter_range;
    quick "page table iter_range visits all" pt_iter_range_counts_all;
    quick "frame alloc/free" frame_alloc_free;
    quick "frame allocation order" frame_allocation_order;
    quick "frame exhaustion" frame_exhaustion;
    quick "frame double free rejected" frame_double_free_rejected;
    quick "frame recycled dirty" frame_recycled_dirty;
    quick "frame pool oversized names the knob" frame_oversized_names_the_knob;
    quick "mmu sets A/D bits" mmu_access_sets_bits;
    quick "mmu faults on remote" mmu_fault_on_remote;
    quick "aspace mmap layout" aspace_mmap_layout;
    quick "aspace find" aspace_find;
    quick "aspace munmap" aspace_munmap;
  ]
