(* Model-based property tests for the virtual-memory layer: random
   operation sequences are applied both to the real structures
   (Page_table / Mmu / Address_space) and to trivially-correct pure
   models (a Hashtbl of vpn -> pte, a sorted list of ranges), then the
   two are compared exhaustively. The generators bias towards vpn
   collisions and reuse so the interesting paths (overwrite, update of
   an existing leaf, unmap/remap) are actually exercised. *)

open Util

(* ------------------------------------------------------------------ *)
(* Page table vs Hashtbl *)

(* A vpn pool mixing neighbours in one leaf, leaf boundaries, level
   boundaries and very sparse high pages (48-bit VA => vpn < 2^36).
   The leaf cache is direct-mapped on [(vpn lsr 9) land 63], so leaves
   0, 64 (vpn 32768), 512 (1 lsl 18) and 2^26 ((1 lsl 35) + 7) share
   slot 0, leaves 1 and 65 (513, 33281) slot 1, and leaves 63 (32256)
   and 2^18 - 1 ((1 lsl 27) - 1) slot 63: lookups evict each other. *)
let vpn_pool =
  [|
    0; 1; 2; 511; 512; 513; 1 lsl 18; (1 lsl 18) + 1; (1 lsl 27) - 1;
    1 lsl 27; (1 lsl 35) + 7; (1 lsl 36) - 1; 32768; 32768 + 511; 33281; 32256;
  |]

type pt_op =
  | Set of int * int
  | Update_set_dirty of int
  | Unset of int
  | Set_word of int * int
  | Get_word of int
  | Update_word of int * int * int * int * int (* vpn, test, expect, keep, set *)

let pt_op_gen =
  let vpn = QCheck.Gen.int_bound (Array.length vpn_pool - 1) in
  QCheck.Gen.(
    oneof
      [
        map2 (fun i frame -> Set (i, frame)) vpn (int_bound 0xFFFF);
        map (fun i -> Update_set_dirty i) vpn;
        map (fun i -> Unset i) vpn;
        map2 (fun i w -> Set_word (i, w)) vpn (oneof [ int_bound 7; int ]);
        map (fun i -> Get_word i) vpn;
        (* Small masks, so the test both passes and fails often. *)
        map3
          (fun i (test, expect) (keep, set) -> Update_word (i, test, expect, keep, set))
          vpn
          (pair (int_bound 7) (int_bound 7))
          (pair (oneof [ return (-1); int_bound 7; map lnot (int_bound 7) ]) (int_bound 7));
      ])

let pt_op_print = function
  | Set (i, f) -> Printf.sprintf "Set(vpn[%d], frame %d)" i f
  | Update_set_dirty i -> Printf.sprintf "Dirty(vpn[%d])" i
  | Unset i -> Printf.sprintf "Unset(vpn[%d])" i
  | Set_word (i, w) -> Printf.sprintf "Set_word(vpn[%d], %d)" i w
  | Get_word i -> Printf.sprintf "Get_word(vpn[%d])" i
  | Update_word (i, test, expect, keep, set) ->
      Printf.sprintf "Update_word(vpn[%d], test %d, expect %d, keep %d, set %d)" i test
        expect keep set

(* PTEs and kernel words live side by side in a leaf; the model keeps
   them in two tables, so a word write that clobbered a PTE (or the
   reverse), or a cached leaf served for the wrong vpn, shows up at the
   next check. Every pool vpn is checked after every op. *)
let page_table_model_qcheck =
  QCheck.Test.make ~name:"page table agrees with Hashtbl model" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 60) pt_op_gen)
       ~print:(fun l -> String.concat "; " (List.map pt_op_print l)))
    (fun ops ->
      let pt = Vmem.Page_table.create () in
      let model : (int, Vmem.Pte.t) Hashtbl.t = Hashtbl.create 16 in
      let words : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let find tbl vpn = Option.value (Hashtbl.find_opt tbl vpn) ~default:0 in
      let model_set vpn pte =
        if Int.equal pte Vmem.Pte.zero then Hashtbl.remove model vpn
        else Hashtbl.replace model vpn pte
      in
      let agrees () =
        Array.for_all
          (fun vpn ->
            Int.equal (Vmem.Page_table.get pt vpn) (find model vpn)
            && Int.equal (Vmem.Page_table.word pt vpn) (find words vpn))
          vpn_pool
      in
      List.for_all
        (fun op ->
          (match op with
          | Set (i, frame) ->
              let vpn = vpn_pool.(i) in
              let pte = Vmem.Pte.make_local ~frame ~writable:true in
              Vmem.Page_table.set pt vpn pte;
              model_set vpn pte
          | Update_set_dirty i ->
              let vpn = vpn_pool.(i) in
              Vmem.Page_table.update pt vpn Vmem.Pte.set_dirty;
              model_set vpn (Vmem.Pte.set_dirty (find model vpn))
          | Unset i ->
              let vpn = vpn_pool.(i) in
              Vmem.Page_table.set pt vpn Vmem.Pte.zero;
              model_set vpn Vmem.Pte.zero
          | Set_word (i, w) ->
              let vpn = vpn_pool.(i) in
              Vmem.Page_table.set_word pt vpn w;
              Hashtbl.replace words vpn w
          | Get_word _ -> ()
          | Update_word (i, test, expect, keep, set) ->
              let vpn = vpn_pool.(i) in
              let w = find words vpn in
              if w land test = expect then Hashtbl.replace words vpn ((w land keep) lor set);
              let old = Vmem.Page_table.update_word pt vpn ~test ~expect ~keep ~set in
              if not (Int.equal old w) then
                QCheck.Test.fail_reportf "update_word returned %d, the word was %d" old w);
          (* Every pool vpn reads back what the models hold. *)
          agrees ())
        ops
      (* ...and the mapped-entry census counts PTEs only. *)
      && Vmem.Page_table.count_mapped pt = Hashtbl.length model)

(* The lookups sit on every fault and clock step: on a cached leaf they
   must not touch the minor heap. *)
let page_table_lookups_no_alloc () =
  let pt = Vmem.Page_table.create () in
  let vpns = [| 0; 511; 512; 1536 |] (* leaves 0, 1 and 3: distinct cache slots *) in
  Array.iter (fun vpn -> Vmem.Page_table.set pt vpn Vmem.Pte.zero) vpns;
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 2_499 do
    let vpn = vpns.(i land 3) + (i land 7) in
    Vmem.Page_table.set pt vpn (Vmem.Pte.make_local ~frame:i ~writable:true);
    Vmem.Page_table.set_word pt vpn i;
    acc :=
      !acc + Vmem.Page_table.get pt vpn + Vmem.Page_table.word pt vpn
      + Vmem.Page_table.update_word pt vpn ~test:1 ~expect:0 ~keep:(-1) ~set:1
  done;
  let w1 = Gc.minor_words () in
  check_int "minor words over 12.5k lookups" 0 (int_of_float (w1 -. w0));
  check_bool "lookups read back" true (!acc > 0)

let page_table_iter_range_qcheck =
  QCheck.Test.make ~name:"iter_range agrees with per-vpn get" ~count:200
    QCheck.(pair (int_bound 2000) (int_range 1 1200))
    (fun (start, count) ->
      let pt = Vmem.Page_table.create () in
      (* Sprinkle entries around the range with a deterministic rng. *)
      let rng = Sim.Rng.create (start + (count * 7919)) in
      for _ = 1 to 40 do
        let vpn = Sim.Rng.int rng 4000 in
        Vmem.Page_table.set pt vpn
          (Vmem.Pte.make_local ~frame:(Sim.Rng.int rng 1000) ~writable:true)
      done;
      let seen = ref [] in
      Vmem.Page_table.iter_range pt ~vpn:start ~count (fun vpn pte ->
          seen := (vpn, pte) :: !seen);
      let expect =
        List.init count (fun i -> (start + i, Vmem.Page_table.get pt (start + i)))
      in
      List.rev !seen = expect)

(* ------------------------------------------------------------------ *)
(* MMU accessed/dirty semantics *)

let mmu_ad_bits_qcheck =
  QCheck.Test.make ~name:"mmu access sets A/D like the hardware walker"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_bound 7) bool))
    (fun accesses ->
      let pt = Vmem.Page_table.create () in
      for vpn = 0 to 7 do
        Vmem.Page_table.set pt vpn (Vmem.Pte.make_local ~frame:vpn ~writable:true)
      done;
      (* Model: which pages have been read / written so far. *)
      let acc = Array.make 8 false and dirty = Array.make 8 false in
      List.for_all
        (fun (vpn, write) ->
          let r = Vmem.Mmu.access pt ~vpn ~write in
          acc.(vpn) <- true;
          if write then dirty.(vpn) <- true;
          let pte = Vmem.Mmu.probe pt ~vpn in
          r = Vmem.Mmu.Frame vpn
          && Vmem.Pte.accessed pte = acc.(vpn)
          && Vmem.Pte.dirty pte = dirty.(vpn))
        accesses
      && List.for_all
           (fun vpn ->
             let pte = Vmem.Mmu.probe pt ~vpn in
             Vmem.Pte.accessed pte = acc.(vpn) && Vmem.Pte.dirty pte = dirty.(vpn))
           [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let mmu_faults_do_not_touch_pte () =
  let pt = Vmem.Page_table.create () in
  Vmem.Page_table.set pt 3 (Vmem.Pte.make_remote ());
  (match Vmem.Mmu.access pt ~vpn:3 ~write:true with
  | Vmem.Mmu.Fault pte ->
      check_bool "faulting entry reported" true
        (Vmem.Pte.tag pte = Vmem.Pte.Remote)
  | Vmem.Mmu.Frame _ -> Alcotest.fail "remote page must fault");
  let pte = Vmem.Mmu.probe pt ~vpn:3 in
  check_bool "fault leaves A/D clear" false
    (Vmem.Pte.accessed pte || Vmem.Pte.dirty pte);
  match Vmem.Mmu.access pt ~vpn:99 ~write:false with
  | Vmem.Mmu.Fault pte -> check_bool "unmapped faults as zero" true
      (Int.equal pte Vmem.Pte.zero)
  | Vmem.Mmu.Frame _ -> Alcotest.fail "unmapped page must fault"

(* ------------------------------------------------------------------ *)
(* Address space vs a sorted-range model *)

type as_op = Mmap of int * bool | Munmap_nth of int | Find of int

let as_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun pages ddc -> Mmap (pages, ddc)) (int_range 1 64) bool);
        (2, map (fun i -> Munmap_nth i) (int_bound 20));
        (3, map (fun i -> Find i) (int_bound 200));
      ])

let as_op_print = function
  | Mmap (p, d) -> Printf.sprintf "Mmap(%d pages, ddc=%b)" p d
  | Munmap_nth i -> Printf.sprintf "Munmap#%d" i
  | Find i -> Printf.sprintf "Find#%d" i

let address_space_model_qcheck =
  QCheck.Test.make ~name:"address space agrees with range-list model" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 40) as_op_gen)
       ~print:(fun l -> String.concat "; " (List.map as_op_print l)))
    (fun ops ->
      let sp = Vmem.Address_space.create () in
      let model = ref [] (* (base, len, ddc) sorted by base *) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          match op with
          | Mmap (pages, ddc) ->
              let len = pages * 4096 in
              let base = Vmem.Address_space.mmap sp ~len ~ddc () in
              (* page aligned, and overlapping no existing range *)
              check (Int64.rem base 4096L = 0L);
              let hi = Int64.add base (Int64.of_int len) in
              check
                (List.for_all
                   (fun (b, l, _) ->
                     let h = Int64.add b (Int64.of_int l) in
                     Int64.compare hi b <= 0 || Int64.compare h base <= 0)
                   !model);
              model :=
                List.sort
                  (fun (a, _, _) (b, _, _) -> Int64.compare a b)
                  ((base, len, ddc) :: !model)
          | Munmap_nth i ->
              if !model <> [] then begin
                let n = i mod List.length !model in
                let base, len, _ = List.nth !model n in
                let vma = Vmem.Address_space.munmap sp base in
                check (Int64.equal vma.Vmem.Address_space.base base);
                check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int len));
                model := List.filter (fun (b, _, _) -> not (Int64.equal b base)) !model
              end
          | Find i ->
              (* Probe interior, boundary and gap addresses. *)
              let addr =
                match !model with
                | [] -> Int64.of_int (i * 4096)
                | l ->
                    let b, len, _ = List.nth l (i mod List.length l) in
                    Int64.add b (Int64.of_int (i * 977 mod (len + 4096)))
              in
              let expect =
                List.find_opt
                  (fun (b, l, _) ->
                    Int64.compare b addr <= 0
                    && Int64.compare addr (Int64.add b (Int64.of_int l)) < 0)
                  !model
              in
              (match (Vmem.Address_space.find sp addr, expect) with
              | None, None -> ()
              | Some vma, Some (b, l, d) ->
                  check (Int64.equal vma.Vmem.Address_space.base b);
                  check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int l));
                  check (vma.Vmem.Address_space.ddc = d)
              | _ -> check false);
              check
                (Vmem.Address_space.is_ddc sp addr
                = (match expect with Some (_, _, d) -> d | None -> false)))
        ops;
      (* Final structural invariants: sorted bases, guard gap between
         neighbours, model agreement. *)
      let vmas = Vmem.Address_space.vmas sp in
      check (List.length vmas = List.length !model);
      List.iter2
        (fun vma (b, l, d) ->
          check (Int64.equal vma.Vmem.Address_space.base b);
          check (Int64.equal vma.Vmem.Address_space.len (Int64.of_int l));
          check (vma.Vmem.Address_space.ddc = d))
        vmas !model;
      let rec gaps = function
        | a :: (b :: _ as rest) ->
            check
              (Int64.compare
                 (Int64.add a.Vmem.Address_space.base a.Vmem.Address_space.len)
                 b.Vmem.Address_space.base
              < 0);
            gaps rest
        | _ -> ()
      in
      gaps vmas;
      !ok)

(* Thousands of one-page mappings, as the DDC allocator's large-object
   path creates them. Probes each mapping's edges and the guard pages
   on both sides (a miss is where a linear lookup walked every mapping),
   unmaps a run from the middle, then probes everything again. *)
let address_space_many_vmas_qcheck =
  QCheck.Test.make ~name:"address space: thousands of one-page vmas" ~count:4
    QCheck.(triple (int_range 1000 2000) (int_bound 1_000_000) (int_range 1 400))
    (fun (n, seed, holes) ->
      let sp = Vmem.Address_space.create () in
      let rng = Sim.Rng.create seed in
      let all =
        List.init n (fun _ ->
            let ddc = Sim.Rng.int rng 2 = 0 in
            (Vmem.Address_space.mmap sp ~len:4096 ~ddc (), 4096L, ddc))
      in
      let agrees model =
        List.for_all
          (fun (b, l, _) ->
            List.for_all
              (fun addr ->
                let expect =
                  List.find_opt
                    (fun (b, l, _) ->
                      Int64.compare b addr <= 0
                      && Int64.compare addr (Int64.add b l) < 0)
                    model
                in
                (match (Vmem.Address_space.find sp addr, expect) with
                | None, None -> true
                | Some vma, Some (b, l, d) ->
                    Int64.equal vma.Vmem.Address_space.base b
                    && Int64.equal vma.Vmem.Address_space.len l
                    && Bool.equal vma.Vmem.Address_space.ddc d
                | Some _, None | None, Some _ -> false)
                && Bool.equal
                     (Vmem.Address_space.is_ddc sp addr)
                     (match expect with Some (_, _, d) -> d | None -> false))
              [ Int64.pred b; b; Int64.add b (Int64.pred l); Int64.add b l ])
          all
      in
      let before = agrees all in
      let lo = (n - holes) / 2 in
      let gone = List.filteri (fun i _ -> i >= lo && i < lo + holes) all in
      List.iter (fun (b, _, _) -> ignore (Vmem.Address_space.munmap sp b)) gone;
      let kept = List.filteri (fun i _ -> i < lo || i >= lo + holes) all in
      before && agrees kept
      && List.equal Int64.equal
           (List.map (fun vma -> vma.Vmem.Address_space.base) (Vmem.Address_space.vmas sp))
           (List.map (fun (b, _, _) -> b) kept))

let address_space_munmap_missing () =
  let sp = Vmem.Address_space.create () in
  let base = Vmem.Address_space.mmap sp ~len:4096 ~ddc:true () in
  (try
     ignore (Vmem.Address_space.munmap sp (Int64.add base 8L));
     Alcotest.fail "munmap of a non-base address must raise"
   with Not_found -> ());
  ignore (Vmem.Address_space.munmap sp base)

let suite =
  [
    QCheck_alcotest.to_alcotest page_table_model_qcheck;
    QCheck_alcotest.to_alcotest page_table_iter_range_qcheck;
    quick "page table lookups allocate nothing" page_table_lookups_no_alloc;
    QCheck_alcotest.to_alcotest mmu_ad_bits_qcheck;
    quick "mmu faults leave ptes untouched" mmu_faults_do_not_touch_pte;
    QCheck_alcotest.to_alcotest address_space_model_qcheck;
    QCheck_alcotest.to_alcotest address_space_many_vmas_qcheck;
    quick "munmap of unknown base raises" address_space_munmap_missing;
  ]
