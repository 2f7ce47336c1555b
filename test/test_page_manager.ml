open Util

(* Build a bare page manager over a scratch fabric for unit-level
   checks (kernel-level behaviour is covered in test_dilos). *)
let with_pm ?(frames = 16) ?reclaim_guide ?extra_completion_delay f =
  run_sim (fun eng ->
      let server = Memnode.Server.create ~eng ~size:(Int64.shift_left 1L 30) () in
      let stats = Sim.Stats.create () in
      let fabric = Memnode.Server.connect server ~stats ?extra_completion_delay () in
      let pt = Vmem.Page_table.create () in
      let fr = Vmem.Frame.create ~frames in
      let pm =
        Dilos.Page_manager.create ~eng ~stats ~pt ~frames:fr
          ~evict_qp:(Rdma.Fabric.qp fabric ~name:"evict") ?reclaim_guide ()
      in
      Dilos.Page_manager.start pm;
      let r = f eng stats pt fr pm in
      Dilos.Page_manager.stop pm;
      r)

let map_page pt fr pm vpn ~dirty =
  let frame = Vmem.Frame.alloc_exn fr in
  let pte = Vmem.Pte.make_local ~frame ~writable:true in
  let pte = if dirty then Vmem.Pte.set_dirty pte else pte in
  Vmem.Page_table.set pt vpn pte;
  Dilos.Page_manager.note_mapped pm vpn;
  frame

let alloc_blocks_until_reclaim () =
  with_pm ~frames:8 (fun _eng stats pt fr pm ->
      (* Occupy every frame with clean cold pages. *)
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      check_int "pool empty" 0 (Dilos.Page_manager.free_frames pm);
      (* alloc_frame must trigger eviction and return. *)
      let f = Dilos.Page_manager.alloc_frame pm in
      check_bool "got a frame" true (f >= 0);
      check_bool "stall recorded" true (Sim.Stats.get stats "reclaim_stalls" >= 1);
      check_bool "something evicted" true (Sim.Stats.get stats "evictions" >= 1))

let clean_pages_dropped_without_rdma () =
  with_pm ~frames:8 (fun _eng stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      check_int "no writebacks for clean pages" 0 (Sim.Stats.get stats "writebacks");
      (* The evicted page's PTE flipped to Remote. *)
      let remote = ref 0 in
      for vpn = 1 to 8 do
        if Vmem.Pte.tag (Vmem.Page_table.get pt vpn) = Vmem.Pte.Remote then incr remote
      done;
      check_bool "at least one remote" true (!remote >= 1))

let dirty_pages_written_back_on_eviction () =
  with_pm ~frames:8 (fun eng stats pt fr pm ->
      let frame0 = map_page pt fr pm 1 ~dirty:true in
      Sim.Bigbuf.set_u64_le (Vmem.Frame.slab fr) (Vmem.Frame.offset fr frame0) 0x5151L;
      for vpn = 2 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:true)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      Dilos.Page_manager.quiesce pm;
      Sim.Engine.sleep eng (Sim.Time.ms 1);
      check_bool "writebacks happened" true (Sim.Stats.get stats "writebacks" >= 1))

let second_chance_respects_accessed_bit () =
  with_pm ~frames:8 (fun _eng _stats pt fr pm ->
      (* Page 1 is hot (accessed); 2..8 cold. *)
      let _ = map_page pt fr pm 1 ~dirty:false in
      Vmem.Page_table.update pt 1 Vmem.Pte.set_accessed;
      for vpn = 2 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      (* The hot page survived the first eviction wave. *)
      Alcotest.(check bool) "hot page still local" true
        (Vmem.Pte.tag (Vmem.Page_table.get pt 1) = Vmem.Pte.Local))

let cleaner_cleans_in_background () =
  with_pm ~frames:32 (fun eng stats pt fr pm ->
      for vpn = 1 to 4 do
        ignore (map_page pt fr pm vpn ~dirty:true)
      done;
      (* No memory pressure: only the periodic cleaner acts. *)
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "cleaner wrote dirty pages" true
        (Sim.Stats.get stats "writebacks" >= 4);
      for vpn = 1 to 4 do
        let p = Vmem.Page_table.get pt vpn in
        Alcotest.(check bool) "still mapped" true (Vmem.Pte.tag p = Vmem.Pte.Local);
        Alcotest.(check bool) "now clean" false (Vmem.Pte.dirty p)
      done)

(* The cleaner must write back exactly the pages a walk of the clock
   from its head would pick: the first [cleaner_batch] that are Local,
   dirty, not in flight and hold live data. A reclaim pass first
   gives accessed pages a second chance (re-pushing them to the tail);
   then, before each checked tick, some in-flight pages are
   re-dirtied, some clean ones dirtied, and the guide's dead set moves.
   Write completions are slowed so write-backs span several ticks. *)
let cleaner_matches_clock_walk () =
  let npages = 480 in
  let dead = Hashtbl.create 64 in
  let guide =
    {
      Dilos.Guide.rg_name = "dead-set";
      rg_live_segments =
        (fun base -> if Hashtbl.mem dead (Vmem.Addr.vpn base) then Some [] else None);
    }
  in
  with_pm ~frames:512 ~reclaim_guide:guide ~extra_completion_delay:(Sim.Time.us 100)
    (fun eng _stats pt fr pm ->
      for vpn = 1 to npages do
        ignore (map_page pt fr pm vpn ~dirty:(vpn mod 3 = 0));
        if vpn mod 4 = 0 then Vmem.Page_table.update pt vpn Vmem.Pte.set_accessed
      done;
      (* Drop below the low watermark: the reclaimer evicts from the
         head and re-pushes accessed pages. *)
      while Dilos.Page_manager.free_frames pm >= 9 do
        ignore (Dilos.Page_manager.try_alloc_frame pm)
      done;
      (* Let the reclaim pass finish and its write-backs land. *)
      Sim.Engine.sleep eng (Sim.Time.us 20);
      Dilos.Page_manager.quiesce pm;
      let is_local vpn = Vmem.Pte.tag (Vmem.Page_table.get pt vpn) = Vmem.Pte.Local in
      let pending vpn =
        let pte = Vmem.Page_table.get pt vpn in
        Vmem.Pte.tag pte = Vmem.Pte.Local && Vmem.Pte.dirty pte
      in
      let dirty vpn =
        Vmem.Page_table.update pt vpn Vmem.Pte.set_dirty;
        Dilos.Page_manager.note_dirtied pm vpn
      in
      for vpn = 1 to npages do
        if is_local vpn && vpn mod 5 <> 1 then dirty vpn
      done;
      (* The pages of [cands] (pending when listed, in clock order) a
         tick has written since: starting a write-back clears the dirty
         bit, and nothing else cleans a page here. *)
      let written_of cands = List.filter (fun v -> not (pending v)) cands in
      (* Anchor on the next cleaner tick, found to within the 1 ns poll
         step; later ticks follow from the cleaner's schedule (period,
         plus 120 ns per page written), and each is observed over
         [tick - 2 ns, tick + 1 ns]. *)
      let cands = List.filter pending (Dilos.Page_manager.clock_order pm) in
      while written_of cands = [] do
        Sim.Engine.sleep eng (Sim.Time.ns 1)
      done;
      let tick = ref (Sim.Engine.now eng) in
      let written = ref (List.length (written_of cands)) in
      (* The order a tick posted its pages: their completions land one
         at a time on the evict QP (768 ns apart), in post order, so a
         100 ns poll sees their in-flight bits clear in that order. *)
      let watch = ref [] and landed = Array.make 13 [] and expects = Array.make 13 [] in
      let watching = ref true and same_instant = ref false in
      Sim.Engine.spawn eng (fun () ->
          while !watching do
            Sim.Engine.sleep eng (Sim.Time.ns 100);
            if !watch <> [] then begin
              let cleared, rest =
                List.partition
                  (fun (v, _) -> not (Dilos.Page_manager.writeback_in_flight pm v))
                  !watch
              in
              (match cleared with
              | [] -> ()
              | [ (v, k) ] -> landed.(k) <- v :: landed.(k)
              | _ -> same_instant := true);
              watch := rest
            end
          done);
      let capped = ref false and skipped_inflight = ref false and skipped_dead = ref false in
      for k = 1 to 12 do
        tick :=
          Sim.Time.add !tick
            (Sim.Time.add Dilos.Params.cleaner_period (Sim.Time.ns (!written * 120)));
        Sim.Engine.sleep_until eng (Sim.Time.sub !tick (Sim.Time.us 5));
        for vpn = 1 to npages do
          if is_local vpn then begin
            if Dilos.Page_manager.writeback_in_flight pm vpn && vpn mod 2 = k mod 2 then
              dirty vpn;
            if vpn mod 7 = k mod 7 then dirty vpn
          end
        done;
        Hashtbl.reset dead;
        for vpn = 1 to npages do
          if vpn mod 9 = k mod 9 then Hashtbl.replace dead vpn ()
        done;
        Sim.Engine.sleep_until eng (Sim.Time.sub !tick (Sim.Time.ns 2));
        let order = Dilos.Page_manager.clock_order pm in
        if List.exists (fun v -> pending v && Dilos.Page_manager.writeback_in_flight pm v) order
        then skipped_inflight := true;
        if List.exists (fun v -> pending v && Hashtbl.mem dead v) order then skipped_dead := true;
        let eligible =
          List.filter
            (fun v ->
              pending v
              && (not (Dilos.Page_manager.writeback_in_flight pm v))
              && not (Hashtbl.mem dead v))
            order
        in
        if List.length eligible > Dilos.Params.cleaner_batch then capped := true;
        let expect = List.filteri (fun i _ -> i < Dilos.Params.cleaner_batch) eligible in
        let cands = List.filter pending order in
        Sim.Engine.sleep_until eng (Sim.Time.add !tick (Sim.Time.ns 1));
        let got = written_of cands in
        written := List.length got;
        Alcotest.(check (list int)) (Printf.sprintf "tick %d" k) expect got;
        List.iter
          (fun v ->
            check_bool "a written page is in flight" true
              (Dilos.Page_manager.writeback_in_flight pm v);
            (* Still watched: it landed and was posted again between
               two polls, after every other page of its tick. *)
            (match List.assoc_opt v !watch with
            | Some k0 ->
                landed.(k0) <- v :: landed.(k0);
                watch := List.remove_assoc v !watch
            | None -> ());
            watch := (v, k) :: !watch)
          got;
        expects.(k) <- got
      done;
      while !watch <> [] do
        Sim.Engine.sleep eng (Sim.Time.us 1)
      done;
      watching := false;
      check_bool "one completion per poll" false !same_instant;
      for k = 1 to 12 do
        Alcotest.(check (list int))
          (Printf.sprintf "tick %d post order" k)
          expects.(k) (List.rev landed.(k))
      done;
      check_bool "a tick hit the batch cap" true !capped;
      check_bool "a dirty in-flight page was skipped" true !skipped_inflight;
      check_bool "a dirty dead page was skipped" true !skipped_dead;
      (* The reclaim pass really re-ordered the clock. *)
      let order = Dilos.Page_manager.clock_order pm in
      check_bool "second chance re-pushed pages" false (List.sort Int.compare order = order))

let vector_log_roundtrip () =
  let guide =
    {
      Dilos.Guide.rg_name = "test";
      rg_live_segments = (fun _ -> Some [ (0, 64); (1024, 128) ]);
    }
  in
  with_pm ~frames:8 ~reclaim_guide:guide (fun _eng _stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      (* Evicted pages carry Action PTEs with the guide's vector. *)
      let found = ref false in
      for vpn = 1 to 8 do
        let p = Vmem.Page_table.get pt vpn in
        if Vmem.Pte.tag p = Vmem.Pte.Action && not !found then begin
          found := true;
          let segs =
            Dilos.Writeback.vector_segments (Dilos.Page_manager.writeback pm) ~payload:(Vmem.Pte.payload p)
          in
          Alcotest.(check (list (pair int int)))
            "vector preserved" [ (0, 64); (1024, 128) ] segs
        end
      done;
      check_bool "an action pte exists" true !found)

let vector_log_consumed_once () =
  let guide =
    {
      Dilos.Guide.rg_name = "test";
      rg_live_segments = (fun _ -> Some [ (0, 64) ]);
    }
  in
  with_pm ~frames:8 ~reclaim_guide:guide (fun _eng _stats pt fr pm ->
      for vpn = 1 to 8 do
        ignore (map_page pt fr pm vpn ~dirty:false)
      done;
      ignore (Dilos.Page_manager.alloc_frame pm);
      let payload = ref None in
      for vpn = 1 to 8 do
        let p = Vmem.Page_table.get pt vpn in
        if Vmem.Pte.tag p = Vmem.Pte.Action && !payload = None then
          payload := Some (Vmem.Pte.payload p)
      done;
      match !payload with
      | None -> Alcotest.fail "no action pte"
      | Some pl ->
          ignore (Dilos.Writeback.vector_segments (Dilos.Page_manager.writeback pm) ~payload:pl);
          Alcotest.check_raises "second decode fails"
            (Invalid_argument "Writeback.vector_segments: unknown payload")
            (fun () -> ignore (Dilos.Writeback.vector_segments (Dilos.Page_manager.writeback pm) ~payload:pl)))

let suite =
  [
    quick "alloc blocks until reclaim" alloc_blocks_until_reclaim;
    quick "clean pages dropped without rdma" clean_pages_dropped_without_rdma;
    quick "dirty pages written back on eviction" dirty_pages_written_back_on_eviction;
    quick "second chance respects accessed bit" second_chance_respects_accessed_bit;
    quick "cleaner cleans in background" cleaner_cleans_in_background;
    quick "cleaner matches a clock walk" cleaner_matches_clock_walk;
    quick "vector log roundtrip" vector_log_roundtrip;
    quick "vector log consumed once" vector_log_consumed_once;
  ]
