(* Replication + scripted recovery: Memnode.Replica_group.

   Unit tests pin the contract piece by piece (mirroring, granule
   diffing, failover routing, resync pacing, drill scheduling); the
   first qcheck test drives a replicated group through random
   interleavings of writes, kills and recoveries and checks it against
   a plain Bytes model — after any such interleaving, every
   last-acknowledged byte must still be served as long as each page
   kept at least one surviving synced replica (which the generator
   guarantees by never overlapping failures). The second lets failures
   overlap and checks the group, whose one store serves every replica,
   against a per-shard reference, lost pages included. *)

open Util
module Rg = Memnode.Replica_group
module Buf = Sim.Bigbuf

let page = 4096

(* ------------------------------------------------------------------ *)
(* Harness: a group + private stats sink, inside a sim fiber. *)

let mk ~eng ?(shards = 2) ?(replication = 2) ?(granule = 256)
    ?(budget = 256 * 1024) ?(interval = Sim.Time.us 100) ?faults
    ?(pages = 64) () =
  let cfg =
    {
      Rg.shards;
      replication;
      granule;
      resync_budget_bytes = budget;
      resync_interval = interval;
    }
  in
  let g =
    Rg.create ~eng ~size:(Int64.of_int (pages * page)) ~config:cfg ?faults ()
  in
  let st = Sim.Stats.create () in
  Rg.attach_stats g st;
  (g, st)

(* Deterministic byte pattern, keyed by absolute address + seed. *)
let pat seed addr = (((addr * 131) lxor (seed * 2654435761)) land 0xff : int)

(* A WRITE of [len] bytes of [b] at [addr] through the group's target,
   as a QP issues one: staged a 4 KiB block's piece at a time, then
   landed in order; the pieces left when one raises are unstaged. *)
let target_write g addr b off len =
  let tg = Rg.target g in
  let rec stage addr off len =
    if len = 0 then []
    else
      let n = Int.min len (page - (addr land (page - 1))) in
      let h = tg.Rdma.Qp.t_stage b off n in
      (addr, h, n) :: stage (addr + n) (off + n) (len - n)
  in
  let rec land_all = function
    | [] -> ()
    | (addr, h, n) :: rest -> (
        match tg.Rdma.Qp.t_land (Int64.of_int addr) h n with
        | () -> land_all rest
        | exception e ->
            List.iter (fun (_, h, _) -> tg.Rdma.Qp.t_unstage h) rest;
            raise e)
  in
  land_all (stage addr off len)

let write_pat g ~seed ~addr ~len =
  let b = Buf.create len in
  for i = 0 to len - 1 do
    Buf.set_u8 b i (pat seed (addr + i))
  done;
  target_write g addr b 0 len

let read_back g ~addr ~len =
  let b = Buf.create len in
  (Rg.target g).Rdma.Qp.t_read (Int64.of_int addr) b 0 len;
  b

let check_pat name g ~seed ~addr ~len =
  let b = read_back g ~addr ~len in
  for i = 0 to len - 1 do
    if not (Int.equal (Buf.get_u8 b i) (pat seed (addr + i))) then
      Alcotest.failf "%s: byte %d of [%#x,+%d) diverged (%d, want %d)" name i
        addr len (Buf.get_u8 b i)
        (pat seed (addr + i))
  done

(* The group's bytes, straight from its one store (no routing). *)
let store_bytes g ~addr ~len =
  let b = Buf.create len in
  Memnode.Page_store.read (Rg.store g) ~addr:(Int64.of_int addr) ~dst:b
    ~off:0 ~len;
  b

let check_holds name g ~shard ~pages =
  for vpn = 0 to pages - 1 do
    if not (Rg.holds g shard vpn) then
      Alcotest.failf "%s: shard %d does not hold page %d" name shard vpn
  done

let stat st name = Sim.Stats.get st name

(* ------------------------------------------------------------------ *)
(* Spec / plan surface for the drill verbs. *)

let parse_ok s =
  match Faults.Spec.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let drill_tokens_parse () =
  let s = parse_ok "kill-shard=1@3ms,recover-shard=0@1ms,kill-shard=0@200us" in
  check_bool "has_drill" true (Faults.Spec.has_drill s);
  (* Kill-only specs keep the wire on its healthy passthrough path. *)
  check_bool "is_zero ignores drills" true (Faults.Spec.is_zero s);
  check_int "kills parsed" 2 (List.length s.Faults.Spec.kills);
  check_int "recovers parsed" 1 (List.length s.Faults.Spec.recovers);
  let p = Faults.Plan.make ~seed:7 s in
  (match Faults.Plan.kills p with
  | [ (a, ta); (b, tb) ] ->
      (* Sorted by instant regardless of token order. *)
      check_int "first kill shard" 0 a;
      check_i64 "first kill at" (Sim.Time.us 200) ta;
      check_int "second kill shard" 1 b;
      check_i64 "second kill at" (Sim.Time.ms 3) tb
  | l -> Alcotest.failf "expected 2 kills, got %d" (List.length l));
  match Faults.Plan.recovers p with
  | [ (i, t) ] ->
      check_int "recover shard" 0 i;
      check_i64 "recover at" (Sim.Time.ms 1) t
  | l -> Alcotest.failf "expected 1 recover, got %d" (List.length l)

let drill_tokens_reject_garbage () =
  let bad s =
    match Faults.Spec.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "kill-shard=0";
  bad "kill-shard=x@1us";
  bad "kill-shard=0@";
  bad "recover-shard=@5us";
  bad "recover-shard=1@zebra";
  bad "kill-shard=-1@1us"

(* ------------------------------------------------------------------ *)
(* Construction-time validation. *)

let create_validates_config () =
  run_sim (fun eng ->
      let bad name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | (_ : Rg.t * Sim.Stats.t) ->
            Alcotest.failf "%s: create unexpectedly succeeded" name
      in
      bad "replication > shards" (fun () ->
          mk ~eng ~shards:2 ~replication:3 ());
      bad "replication 0" (fun () -> mk ~eng ~replication:0 ());
      bad "shards 0" (fun () -> mk ~eng ~shards:0 ~replication:1 ());
      bad "granule not dividing page" (fun () -> mk ~eng ~granule:7 ());
      bad "granule too small" (fun () -> mk ~eng ~granule:4 ());
      bad "budget below a page" (fun () -> mk ~eng ~budget:100 ());
      bad "drill names shard out of range" (fun () ->
          let faults = Faults.Plan.make ~seed:1 (parse_ok "kill-shard=5@1ms") in
          mk ~eng ~faults ()))

(* ------------------------------------------------------------------ *)
(* Write mirroring + granule diffing. *)

let writes_mirror_to_all_replicas () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      (* Two pages => both primaries exercised. *)
      write_pat g ~seed:3 ~addr:0 ~len:(2 * page);
      (* RF=2 over 2 shards: both shards hold every page, and the
         store holds each page's bytes once. *)
      check_holds "shard 0" g ~shard:0 ~pages:2;
      check_holds "shard 1" g ~shard:1 ~pages:2;
      let b = store_bytes g ~addr:0 ~len:(2 * page) in
      for i = 0 to (2 * page) - 1 do
        if not (Int.equal (Buf.get_u8 b i) (pat 3 i)) then
          Alcotest.failf "store missing mirrored byte %d" i
      done;
      check_int "one block per page" 2
        (Memnode.Page_store.resident_blocks (Rg.store g));
      check_bool "mirror writes counted" true (stat st "repl_mirror_writes" > 0);
      check_int "mirror bytes = one backup copy" (2 * page)
        (stat st "repl_mirror_bytes");
      check_bool "mirror latency priced" true (stat st "repl_mirror_ns" > 0))

let granule_diff_bounds_mirror_traffic () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:9 ~addr:0 ~len:page;
      check_int "fresh page: all granules dirty" (page / 256)
        (stat st "repl_granules_dirty");
      check_int "fresh page: none clean" 0 (stat st "repl_granules_clean");
      (* Rewrite the page with exactly one granule changed. *)
      let b = read_back g ~addr:0 ~len:page in
      Buf.set_u8 b 512 (1 + Buf.get_u8 b 512);
      target_write g 0 b 0 page;
      check_int "rewrite: one dirty granule" ((page / 256) + 1)
        (stat st "repl_granules_dirty");
      check_int "rewrite: rest clean" ((page / 256) - 1)
        (stat st "repl_granules_clean");
      check_int "mirror traffic = page + one granule" (page + 256)
        (stat st "repl_mirror_bytes"))

let read_serves_written_bytes () =
  run_sim (fun eng ->
      let g, _ = mk ~eng () in
      (* Deliberately unaligned, page-crossing range. *)
      write_pat g ~seed:5 ~addr:(page - 100) ~len:(page + 200);
      check_pat "cross-page" g ~seed:5 ~addr:(page - 100) ~len:(page + 200))

(* The memory node keeps one copy of each page, whatever the
   replication factor: every replica holds every page written, and the
   store's blocks are the distinct pages written. *)
let one_block_per_page_at_any_rf () =
  List.iter
    (fun replication ->
      run_sim (fun eng ->
          let g, _ = mk ~eng ~shards:3 ~replication () in
          (* Pages 0-4, page 2 again, and page 10: six distinct pages. *)
          write_pat g ~seed:5 ~addr:(page - 100) ~len:(4 * page);
          write_pat g ~seed:6 ~addr:(2 * page) ~len:page;
          write_pat g ~seed:7 ~addr:(10 * page) ~len:8;
          List.iter
            (fun vpn ->
              for i = 0 to replication - 1 do
                let shard = (vpn + i) mod 3 in
                if not (Rg.holds g shard vpn) then
                  Alcotest.failf "RF %d: replica %d of page %d holds nothing"
                    replication shard vpn
              done)
            [ 0; 1; 2; 3; 4; 10 ];
          check_int
            (Printf.sprintf "RF %d: resident blocks = distinct pages" replication)
            6
            (Memnode.Page_store.resident_blocks (Rg.store g))))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Kill / failover. *)

let failover_serves_last_acked_bytes () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:11 ~addr:0 ~len:(8 * page);
      Rg.kill g 0;
      check_bool "shard 0 dead" false (Rg.alive g 0);
      check_pat "after kill" g ~seed:11 ~addr:0 ~len:(8 * page);
      check_int "one kill" 1 (stat st "repl_kills");
      (* Pages whose primary was shard 0 were redirected. *)
      check_bool "failover reads counted" true
        (stat st "repl_failover_reads" > 0))

let failover_latency_recorded_once () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:2 ~addr:0 ~len:page;
      Rg.kill g 0;
      Sim.Engine.sleep eng (Sim.Time.us 7);
      (* Page 0's primary is the dead shard 0: redirected. *)
      check_pat "first redirected read" g ~seed:2 ~addr:0 ~len:page;
      check_int "failover latency = detection gap" 7_000
        (stat st "repl_failover_latency_ns");
      Sim.Engine.sleep eng (Sim.Time.us 50);
      check_pat "second read" g ~seed:2 ~addr:0 ~len:page;
      check_int "latency recorded once" 7_000
        (stat st "repl_failover_latency_ns"))

let rf1_kill_is_unreachable () =
  run_sim (fun eng ->
      let g, _ = mk ~eng ~shards:2 ~replication:1 () in
      write_pat g ~seed:1 ~addr:0 ~len:page;
      (* RF=1: page 0 lives only on its primary, shard 0. *)
      Rg.kill g 0;
      match read_back g ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable a -> check_i64 "faulting addr" 0L a
      | _ -> Alcotest.fail "read of a dead RF=1 page served bytes")

let double_kill_is_unreachable () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:1 ~addr:0 ~len:page;
      Rg.kill g 0;
      Rg.kill g 0;
      (* idempotent while dead *)
      check_int "re-kill not double counted" 1 (stat st "repl_kills");
      Rg.kill g 1;
      check_int "two real kills" 2 (stat st "repl_kills");
      (match read_back g ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable _ -> ()
      | _ -> Alcotest.fail "read with zero live replicas served bytes");
      (* Writes with no live replica must refuse the ack too. *)
      (match write_pat g ~seed:4 ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable _ -> ()
      | () -> Alcotest.fail "write with zero live replicas was acked");
      check_int "the refused write left nothing staged" 0
        (Memnode.Page_store.staged (Rg.store g)))

(* A WRITE the group cannot land still consumes its staged payload:
   through a QP, a three-page WRITE whose second page has no live
   replica lands its first page and fails, and its third page, never
   landed, is unstaged; a one-page WRITE to a dead page lands nothing.
   Either way nothing stays staged and what the store holds is exactly
   what landed. *)
let unreachable_write_unstages () =
  run_sim (fun eng ->
      let g, _ = mk ~eng ~shards:2 ~replication:1 () in
      let store = Rg.store g in
      write_pat g ~seed:1 ~addr:0 ~len:(4 * page);
      (* RF=1: odd pages live only on shard 1, and die with it. *)
      Rg.kill g 1;
      check_int "two pages left" 2 (Memnode.Page_store.resident_blocks store);
      let fabric =
        Rdma.Fabric.connect ~eng ~target:(Rg.target g)
          ~size:(Int64.of_int (64 * page)) ()
      in
      let qp = Rdma.Fabric.qp fabric ~name:"t" in
      let src = Buf.create (3 * page) in
      for i = 0 to (3 * page) - 1 do
        Buf.set_u8 src i (pat 2 i)
      done;
      let failures = ref 0 in
      let post raddr len =
        Rdma.Qp.post_write qp
          ~on_error:(fun () -> incr failures)
          ~segs:[ { Rdma.Qp.raddr; loff = 0; len } ]
          ~buf:src
          ~on_complete:(fun () -> Alcotest.fail "write to a dead page acked")
      in
      post 0L (3 * page);
      post (Int64.of_int (3 * page)) page;
      check_int "four payloads staged in flight" 4 (Memnode.Page_store.staged store);
      Sim.Engine.sleep eng (Sim.Time.us 100);
      check_int "both writes failed" 2 !failures;
      check_int "nothing left staged" 0 (Memnode.Page_store.staged store);
      check_pat "page 0 landed before the failure" g ~seed:2 ~addr:0 ~len:page;
      check_pat "page 2 kept its bytes" g ~seed:1 ~addr:(2 * page) ~len:page;
      check_int "still two pages" 2 (Memnode.Page_store.resident_blocks store);
      check_int "two dense pages held" (2 * page) (Memnode.Page_store.held_bytes store))

(* At RF 2 a write is diffed against the store in place. A page with
   no dirty granule lands nothing: a fresh all-zero page stays absent
   and an identical rewrite keeps the block as it was. A whole page
   with a dirty granule is adopted, so it is held at its new used
   length. *)
let rf2_clean_write_keeps_residency () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      let store = Rg.store g in
      let zeros = Buf.create page in
      target_write g (5 * page) zeros 0 page;
      check_bool "all-zero page on a fresh block stays absent" false
        (Memnode.Page_store.mem store 5);
      check_int "all granules clean" (page / 256) (stat st "repl_granules_clean");
      write_pat g ~seed:3 ~addr:(6 * page) ~len:page;
      check_int "dense page held whole" page (Memnode.Page_store.held_bytes store);
      let same = read_back g ~addr:(6 * page) ~len:page in
      target_write g (6 * page) same 0 page;
      check_bool "identical rewrite keeps the block" true (Memnode.Page_store.mem store 6);
      check_int "and its slot" page (Memnode.Page_store.held_bytes store);
      let sparse = Buf.create page in
      Buf.set_u64_le sparse 0 0x0102030405060708L;
      target_write g (6 * page) sparse 0 page;
      check_int "sparse rewrite adopted at 64 B" 64 (Memnode.Page_store.held_bytes store);
      check_bool "bytes exact" true
        (Buf.equal_range (read_back g ~addr:(6 * page) ~len:page) ~a_off:0 sparse ~b_off:0
           ~len:page);
      check_int "nothing staged" 0 (Memnode.Page_store.staged store))

(* ------------------------------------------------------------------ *)
(* Recovery / resync. *)

let resync_restores_replication_factor () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:8 ~addr:0 ~len:(16 * page);
      Rg.kill g 0;
      Rg.recover g 0;
      check_bool "alive again" true (Rg.alive g 0);
      check_bool "syncing after recover" true (Rg.syncing g 0);
      (* Default budget (256 KiB / 100 us) moves 16 pages within a few
         intervals; drain generously. *)
      Sim.Engine.sleep eng (Sim.Time.ms 5);
      check_bool "sync drained" false (Rg.syncing g 0);
      check_int "one recover" 1 (stat st "repl_recovers");
      check_int "all touched pages resynced" 16 (stat st "repl_resync_pages");
      check_int "resync bytes" (16 * page) (stat st "repl_resync_bytes");
      (* 64 KiB fits one 256 KiB budget interval, so recovery here is
         legitimately instantaneous; the pacing case is pinned below. *)
      check_int "sub-budget recovery is instantaneous" 0
        (stat st "repl_recovery_ns");
      check_int "nothing lost" 0 (stat st "repl_lost_pages");
      (* Shard 0 holds its pages again, with their bytes... *)
      check_holds "resynced" g ~shard:0 ~pages:16;
      let b = store_bytes g ~addr:0 ~len:(16 * page) in
      for i = 0 to (16 * page) - 1 do
        if not (Int.equal (Buf.get_u8 b i) (pat 8 i)) then
          Alcotest.failf "resynced page lost byte %d" i
      done;
      (* ...and survives the OTHER shard dying. *)
      Rg.kill g 1;
      check_pat "full RF restored" g ~seed:8 ~addr:0 ~len:(16 * page))

let resync_respects_bandwidth_budget () =
  run_sim (fun eng ->
      (* Tight budget: 2 pages per 10 us, 48 pages to move. *)
      let g, st =
        mk ~eng ~budget:(2 * page) ~interval:(Sim.Time.us 10) ~pages:64 ()
      in
      write_pat g ~seed:6 ~addr:0 ~len:(48 * page);
      Rg.kill g 0;
      Rg.recover g 0;
      Sim.Engine.sleep eng (Sim.Time.ms 5);
      check_bool "sync drained" false (Rg.syncing g 0);
      check_int "all pages moved" 48 (stat st "repl_resync_pages");
      check_bool "budget honored" true
        (Rg.max_resync_bytes_per_interval g <= 2 * page);
      (* 48 pages at 2 pages/10us cannot finish faster than ~230 us. *)
      check_bool "pacing actually stretched recovery" true
        (stat st "repl_recovery_ns" >= 230_000))

let mid_resync_reads_fail_over_not_stale () =
  run_sim (fun eng ->
      let g, st =
        mk ~eng ~budget:page ~interval:(Sim.Time.us 100) ~pages:64 ()
      in
      write_pat g ~seed:12 ~addr:0 ~len:(32 * page);
      Rg.kill g 0;
      Rg.recover g 0;
      (* Immediately after recover, shard 0 is alive but empty: reads
         of its primaries must keep failing over, never serve zeros. *)
      check_bool "still syncing" true (Rg.syncing g 0);
      let before = stat st "repl_failover_reads" in
      check_pat "mid-resync" g ~seed:12 ~addr:0 ~len:(32 * page);
      check_bool "mid-resync reads redirected" true
        (stat st "repl_failover_reads" > before))

let lost_pages_stay_unserved () =
  run_sim (fun eng ->
      let g, st = mk ~eng ~shards:2 ~replication:1 () in
      write_pat g ~seed:14 ~addr:0 ~len:page;
      (* Pages 0..: RF=1 primaries alternate; page 0 only on shard 0. *)
      Rg.kill g 0;
      Rg.recover g 0;
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "lost pages counted" true (stat st "repl_lost_pages" > 0);
      (* The group must keep refusing, not resurrect the page as zeros. *)
      match read_back g ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable _ -> ()
      | _ -> Alcotest.fail "irrecoverable page served (stale or zero) bytes")

let orphaned_page_stays_unserved () =
  run_sim (fun eng ->
      let g, st = mk ~eng ~shards:2 ~replication:2 () in
      Rg.kill g 0;
      (* Shard 0 is down, so page 0 lands on shard 1 only... *)
      write_pat g ~seed:111 ~addr:0 ~len:page;
      (* ...which then dies too, taking the page's last copy. *)
      Rg.kill g 1;
      check_int "the orphan's block is dropped" 0
        (Memnode.Page_store.resident_blocks (Rg.store g));
      Rg.recover g 0;
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_int "the orphan counted lost" 1 (stat st "repl_lost_pages");
      check_bool "shard 0 never reports synced" true (Rg.syncing g 0);
      (match read_back g ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable a -> check_i64 "faulting addr" 0L a
      | b ->
          Alcotest.failf "orphaned page served bytes (byte 0 = %d)"
            (Buf.get_u8 b 0));
      (* The corpse that held it comes back: lost there too. *)
      Rg.recover g 1;
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_int "lost on both members" 2 (stat st "repl_lost_pages");
      match read_back g ~addr:0 ~len:page with
      | exception Rdma.Qp.Unreachable _ -> ()
      | _ -> Alcotest.fail "orphaned page served after both recovered")

let recover_is_idempotent_while_alive () =
  run_sim (fun eng ->
      let g, st = mk ~eng () in
      write_pat g ~seed:4 ~addr:0 ~len:page;
      Rg.recover g 0;
      (* no-op: already alive *)
      check_int "no spurious recover" 0 (stat st "repl_recovers");
      check_bool "not syncing" false (Rg.syncing g 0);
      check_pat "data intact" g ~seed:4 ~addr:0 ~len:page)

(* ------------------------------------------------------------------ *)
(* Scripted drills (timers from a fault plan). *)

let scripted_drill_fires_on_schedule () =
  run_sim (fun eng ->
      let faults =
        Faults.Plan.make ~seed:3
          (parse_ok "kill-shard=0@20us,recover-shard=0@60us")
      in
      let g, st = mk ~eng ~faults () in
      write_pat g ~seed:21 ~addr:0 ~len:(4 * page);
      check_bool "alive before the kill instant" true (Rg.alive g 0);
      Sim.Engine.sleep eng (Sim.Time.us 30);
      check_bool "killed at +20us" false (Rg.alive g 0);
      check_pat "degraded reads" g ~seed:21 ~addr:0 ~len:(4 * page);
      Sim.Engine.sleep eng (Sim.Time.ms 2);
      check_bool "recovered at +60us" true (Rg.alive g 0);
      check_bool "resync drained" false (Rg.syncing g 0);
      check_int "kills" 1 (stat st "repl_kills");
      check_int "recovers" 1 (stat st "repl_recovers"))

let cancel_drill_disarms_timers () =
  run_sim (fun eng ->
      let faults = Faults.Plan.make ~seed:3 (parse_ok "kill-shard=0@20us") in
      let g, st = mk ~eng ~faults () in
      Rg.cancel_drill g;
      Sim.Engine.sleep eng (Sim.Time.us 100);
      check_bool "still alive" true (Rg.alive g 0);
      check_int "no kill fired" 0 (stat st "repl_kills"))

(* ------------------------------------------------------------------ *)
(* qcheck: replicated group vs a plain Bytes model. *)

let q_pages = 16
let q_size = q_pages * page

type q_op =
  | Q_write of int * int * int  (** off, len, seed *)
  | Q_kill of int
  | Q_recover of int
  | Q_read of int * int  (** off, len *)

let q_op_print = function
  | Q_write (o, l, s) -> Printf.sprintf "Write(%#x,+%d,#%d)" o l s
  | Q_kill i -> Printf.sprintf "Kill(%d)" i
  | Q_recover i -> Printf.sprintf "Recover(%d)" i
  | Q_read (o, l) -> Printf.sprintf "Read(%#x,+%d)" o l

let q_op_gen =
  QCheck.Gen.(
    let off_len =
      (* Bias towards page-crossing and granule-unaligned ranges. *)
      map2
        (fun o l -> (o mod (q_size - 1), 1 + (l mod (q_size / 2))))
        (int_bound (q_size - 2))
        (int_bound (q_size - 2))
    in
    frequency
      [
        (5, map2 (fun (o, l) s -> Q_write (o, min l (q_size - o), s)) off_len (int_bound 1000));
        (1, map (fun i -> Q_kill i) (int_bound 1));
        (1, map (fun i -> Q_recover i) (int_bound 1));
        (3, map (fun (o, l) -> Q_read (o, min l (q_size - o))) off_len);
      ])

let replicated_group_agrees_with_bytes_model =
  QCheck.Test.make ~name:"replica group serves every last-acknowledged byte"
    ~count:60
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) q_op_gen)
       ~print:(fun l -> String.concat "; " (List.map q_op_print l)))
    (fun ops ->
      run_sim (fun eng ->
          let g, _ = mk ~eng ~pages:q_pages () in
          let model = Bytes.make q_size '\000' in
          let alive = [| true; true |] in
          (* Only fail a shard when the other is alive AND synced, so
             every acknowledged byte always keeps a live copy. *)
          let drain () = Sim.Engine.sleep eng (Sim.Time.ms 10) in
          let check_range off len =
            let b = read_back g ~addr:off ~len in
            for i = 0 to len - 1 do
              if not (Int.equal (Buf.get_u8 b i) (Char.code (Bytes.get model (off + i))))
              then
                QCheck.Test.fail_reportf
                  "byte %#x diverged: group %d, model %d" (off + i)
                  (Buf.get_u8 b i)
                  (Char.code (Bytes.get model (off + i)))
            done
          in
          List.iter
            (fun op ->
              match op with
              | Q_write (off, len, seed) ->
                  let b = Buf.create len in
                  for i = 0 to len - 1 do
                    let v = pat seed (off + i) in
                    Buf.set_u8 b i v;
                    Bytes.set model (off + i) (Char.chr v)
                  done;
                  target_write g off b 0 len
              | Q_kill i ->
                  if alive.(i) && alive.(1 - i) && not (Rg.syncing g (1 - i))
                  then begin
                    Rg.kill g i;
                    alive.(i) <- false
                  end
              | Q_recover i ->
                  if not alive.(i) then begin
                    Rg.recover g i;
                    alive.(i) <- true;
                    drain ()
                  end
              | Q_read (off, len) -> check_range off len)
            ops;
          (* Final full read-back: everything acked must still serve. *)
          check_range 0 q_size;
          true))

(* qcheck: overlapping failures against a per-shard reference.

   Kills and recoveries overlap freely here (every replica of a page
   down at once, a kill mid-resync), so pages do get lost. The
   reference keeps one byte map per shard under the group's rules: a
   write lands on every serving member, a kill wipes the shard's map
   and tombstones what it held (and, when it held a page's last copy,
   tombstones that page on every dead member), and a recovery queues
   the pages survivors hold plus its tombstones, then copies them one
   per resync interval from the first serving member, or counts them
   lost. The budget is one page per interval, so each copy ends a
   resync step; the interval (10.007 us) never divides a gap between
   the test's instants (whole microseconds), so no resync step ties
   with a test operation. *)

type o_op =
  | O_write of int * int * int  (** off, len, seed *)
  | O_read of int * int  (** off, len *)
  | O_kill of int
  | O_recover of int
  | O_sleep of int  (** microseconds *)

let o_op_print = function
  | O_write (o, l, s) -> Printf.sprintf "Write(%#x,+%d,#%d)" o l s
  | O_read (o, l) -> Printf.sprintf "Read(%#x,+%d)" o l
  | O_kill i -> Printf.sprintf "Kill(%d)" i
  | O_recover i -> Printf.sprintf "Recover(%d)" i
  | O_sleep us -> Printf.sprintf "Sleep(%dus)" us

let o_op_gen ~shards =
  QCheck.Gen.(
    let off_len =
      map2
        (fun o l -> (o mod (q_size - 1), 1 + (l mod (q_size / 2))))
        (int_bound (q_size - 2))
        (int_bound (q_size - 2))
    in
    frequency
      [
        (4, map2 (fun (o, l) s -> O_write (o, min l (q_size - o), s)) off_len (int_bound 1000));
        (3, map (fun (o, l) -> O_read (o, min l (q_size - o))) off_len);
        (1, map (fun i -> O_kill i) (int_bound (shards - 1)));
        (1, map (fun i -> O_recover i) (int_bound (shards - 1)));
        (2, map (fun us -> O_sleep us) (int_range 1 60));
      ])

type m_shard = {
  mutable m_alive : bool;
  m_pages : (int, Bytes.t) Hashtbl.t;  (* pages written to this shard *)
  m_missed : (int, unit) Hashtbl.t;
  mutable m_queue : int list;
  mutable m_tomb : int list;
  mutable m_fiber : (int * int) option;  (* next step (ns), spawn order *)
}

let o_interval = 10_007

let shared_store_agrees_with_per_shard_model (shards, replication) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "replica group agrees with a per-shard model through overlapping \
          failures (%d shards, RF %d)"
         shards replication)
    ~count:80
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 60) (o_op_gen ~shards))
       ~print:(fun l -> String.concat "; " (List.map o_op_print l)))
    (fun ops ->
      run_sim (fun eng ->
          let g, st =
            mk ~eng ~shards ~replication ~budget:page
              ~interval:(Int64.of_int o_interval) ~pages:q_pages ()
          in
          let m =
            Array.init shards (fun _ ->
                {
                  m_alive = true;
                  m_pages = Hashtbl.create 16;
                  m_missed = Hashtbl.create 16;
                  m_queue = [];
                  m_tomb = [];
                  m_fiber = None;
                })
          in
          let now = ref 0 and spawned = ref 0 in
          let lost = ref 0 and resynced = ref 0 in
          let member vpn i = (vpn + i) mod shards in
          let serves s vpn = m.(s).m_alive && not (Hashtbl.mem m.(s).m_missed vpn) in
          let is_member s vpn =
            List.exists (fun i -> member vpn i = s) (List.init replication Fun.id)
          in
          let first_serving ?(except = -1) vpn =
            List.find_opt
              (fun s -> s <> except && serves s vpn)
              (List.init replication (member vpn))
          in
          let page_of s vpn =
            match Hashtbl.find_opt m.(s).m_pages vpn with
            | Some b -> b
            | None ->
                let b = Bytes.make page '\000' in
                Hashtbl.replace m.(s).m_pages vpn b;
                b
          in
          let byte_of s vpn i =
            match Hashtbl.find_opt m.(s).m_pages vpn with
            | Some b -> Bytes.get b i
            | None -> '\000'
          in
          (* One in-page chunk of a write; [None] if no member serves. *)
          let write_chunk addr len v =
            let vpn = addr / page and start = addr mod page in
            match first_serving vpn with
            | None -> false
            | Some auth ->
                let fin = start + len in
                for gi = start / 256 to (fin - 1) / 256 do
                  let p0 = max start (gi * 256) and p1 = min fin ((gi + 1) * 256) in
                  let dirty = ref false in
                  for p = p0 to p1 - 1 do
                    if byte_of auth vpn p <> v (vpn * page + p) then dirty := true
                  done;
                  if !dirty then
                    List.iter
                      (fun i ->
                        let s = member vpn i in
                        if serves s vpn then
                          let b = page_of s vpn in
                          for p = p0 to p1 - 1 do
                            Bytes.set b p (v (vpn * page + p))
                          done)
                      (List.init replication Fun.id)
                done;
                true
          in
          (* In-page chunks of [off, off+len), in order. *)
          let chunks off len =
            let rec go a acc =
              if a >= off + len then List.rev acc
              else
                let n = min (off + len - a) (page - (a mod page)) in
                go (a + n) ((a, n) :: acc)
            in
            go off []
          in
          let kill s =
            let sh = m.(s) in
            if sh.m_alive then begin
              sh.m_alive <- false;
              let held =
                Hashtbl.fold
                  (fun vpn _ acc ->
                    if Hashtbl.mem sh.m_missed vpn then acc else vpn :: acc)
                  sh.m_pages []
              in
              List.iter
                (fun vpn ->
                  if first_serving vpn = None then
                    List.iter
                      (fun i ->
                        let q = m.(member vpn i) in
                        if not q.m_alive then
                          q.m_tomb <- List.sort_uniq compare (vpn :: q.m_tomb))
                      (List.init replication Fun.id))
                held;
              sh.m_tomb <-
                List.sort_uniq compare
                  (sh.m_tomb @ held
                  @ Hashtbl.fold (fun vpn () acc -> vpn :: acc) sh.m_missed []);
              Hashtbl.reset sh.m_pages;
              Hashtbl.reset sh.m_missed;
              sh.m_queue <- [];
              sh.m_fiber <- None
            end
          in
          let recover s =
            let sh = m.(s) in
            if not sh.m_alive then begin
              sh.m_alive <- true;
              let q = ref [] in
              let add vpn =
                if not (Hashtbl.mem sh.m_missed vpn) then begin
                  Hashtbl.replace sh.m_missed vpn ();
                  q := vpn :: !q
                end
              in
              for o = 0 to shards - 1 do
                if o <> s && m.(o).m_alive then
                  List.iter
                    (fun vpn -> if is_member s vpn && serves o vpn then add vpn)
                    (List.sort compare
                       (Hashtbl.fold (fun vpn _ acc -> vpn :: acc) m.(o).m_pages []))
              done;
              List.iter add sh.m_tomb;
              sh.m_tomb <- [];
              sh.m_queue <- List.rev !q;
              if sh.m_queue <> [] then begin
                sh.m_fiber <- Some (!now, !spawned);
                incr spawned
              end
            end
          in
          (* One resync step of shard [s]: pop until a page is copied. *)
          let step s at =
            let sh = m.(s) in
            let rec go () =
              match sh.m_queue with
              | [] -> sh.m_fiber <- None
              | vpn :: rest -> (
                  sh.m_queue <- rest;
                  match first_serving ~except:s vpn with
                  | None ->
                      incr lost;
                      go ()
                  | Some src ->
                      Hashtbl.replace sh.m_pages vpn (Bytes.copy (page_of src vpn));
                      Hashtbl.remove sh.m_missed vpn;
                      incr resynced;
                      sh.m_fiber <-
                        Option.map (fun (_, o) -> (at + o_interval, o)) sh.m_fiber)
            in
            go ()
          in
          let sleep us =
            let target = !now + (us * 1000) in
            let rec run () =
              let next = ref None in
              Array.iteri
                (fun s sh ->
                  match sh.m_fiber with
                  | Some (at, o) when at < target -> (
                      match !next with
                      | Some (_, at', o') when (at', o') <= (at, o) -> ()
                      | _ -> next := Some (s, at, o))
                  | _ -> ())
                m;
              match !next with
              | None -> ()
              | Some (s, at, _) ->
                  step s at;
                  run ()
            in
            run ();
            now := target;
            Sim.Engine.sleep eng (Sim.Time.us us)
          in
          let unreachable what expect got =
            QCheck.Test.fail_reportf "%s: model says %s, group says %s" what
              expect got
          in
          let read off len =
            let first_lost =
              List.find_opt
                (fun (a, _) -> first_serving (a / page) = None)
                (chunks off len)
            in
            match (read_back g ~addr:off ~len, first_lost) with
            | exception Rdma.Qp.Unreachable a -> (
                match first_lost with
                | Some (la, _) when Int64.to_int a = la -> ()
                | Some (la, _) ->
                    unreachable "read" (Printf.sprintf "lost at %#x" la)
                      (Printf.sprintf "unreachable at %#Lx" a)
                | None ->
                    unreachable "read" "served" (Printf.sprintf "unreachable at %#Lx" a))
            | _, Some (la, _) ->
                unreachable "read" (Printf.sprintf "lost at %#x" la) "served"
            | b, None ->
                for i = 0 to len - 1 do
                  let a = off + i in
                  let want =
                    match first_serving (a / page) with
                    | Some s -> Char.code (byte_of s (a / page) (a mod page))
                    | None -> assert false
                  in
                  if Buf.get_u8 b i <> want then
                    QCheck.Test.fail_reportf "byte %#x diverged: group %d, model %d"
                      a (Buf.get_u8 b i) want
                done
          in
          let write off len seed =
            let v a = Char.chr (pat seed a) in
            let model_refused =
              List.find_opt (fun (a, n) -> not (write_chunk a n v)) (chunks off len)
            in
            match (write_pat g ~seed ~addr:off ~len, model_refused) with
            | exception Rdma.Qp.Unreachable a -> (
                match model_refused with
                | Some (la, _) when Int64.to_int a = la -> ()
                | _ ->
                    unreachable "write" "acked" (Printf.sprintf "unreachable at %#Lx" a))
            | (), Some (la, _) ->
                unreachable "write" (Printf.sprintf "lost at %#x" la) "acked"
            | (), None -> ()
          in
          List.iter
            (function
              | O_write (off, len, seed) -> write off len seed
              | O_read (off, len) -> read off len
              | O_kill i ->
                  kill i;
                  Rg.kill g i
              | O_recover i ->
                  recover i;
                  Rg.recover g i
              | O_sleep us -> sleep us)
            ops;
          sleep 1_000;
          for p = 0 to q_pages - 1 do
            read (p * page) page
          done;
          if stat st "repl_lost_pages" <> !lost then
            QCheck.Test.fail_reportf "repl_lost_pages %d, model %d"
              (stat st "repl_lost_pages") !lost;
          if stat st "repl_resync_pages" <> !resynced then
            QCheck.Test.fail_reportf "repl_resync_pages %d, model %d"
              (stat st "repl_resync_pages") !resynced;
          true))

(* ------------------------------------------------------------------ *)
(* The memory node contract: a single node is a one-shard group whose
   Stats key set is the plain node's, and whose per-shard series count
   every page it serves. *)

let seq_run ?fault_spec ?shards ?replication ?obs () =
  Apps.Harness.run (Apps.Harness.Dilos Dilos.Kernel.Readahead)
    ~local_mem:(256 * 1024) ?fault_spec ?shards ?replication ?obs (fun ctx ->
      ignore (Apps.Seq.run ctx ~size_bytes:(1024 * 1024) ~mode:Apps.Seq.Read))

let repl_keys (r : _ Apps.Harness.result) =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"repl_" k)
    (Sim.Stats.counters r.Apps.Harness.run_stats)

let repl_keys_only_where_they_move () =
  check_int "single node: no repl_* counter" 0
    (List.length (repl_keys (seq_run ())));
  let drill = seq_run ~fault_spec:(parse_ok "recover-shard=0@1us") () in
  check_bool "single node + drill: repl_* counters" true
    (repl_keys drill <> []);
  check_bool "2 shards x RF2: repl_* counters" true
    (repl_keys (seq_run ~shards:2 ~replication:2 ()) <> [])

let shard_series reg family shard =
  match
    List.find_opt
      (fun f -> String.equal f.Obs.Registry.f_name family)
      (Obs.Registry.families reg)
  with
  | None -> Alcotest.failf "no %s family" family
  | Some f -> (
      match
        List.find_opt
          (fun s -> List.assoc_opt "shard" s.Obs.Registry.s_labels = Some shard)
          f.Obs.Registry.f_series
      with
      | Some { Obs.Registry.s_value; _ } -> (
          match s_value () with
          | Obs.Registry.V n -> n
          | Obs.Registry.H _ -> Alcotest.failf "%s is a histogram" family)
      | None -> Alcotest.failf "no %s{shard=%S}" family shard)

let single_node_counts_pages_served () =
  let reg = Obs.Registry.create () in
  let r = seq_run ~obs:reg () in
  let pages = Sim.Stats.get r.Apps.Harness.run_stats "rdma_read_bytes" / page in
  check_bool "the run fetched pages" true (pages > 0);
  check_int "repl_shard_reads{shard=\"0\"} = pages read" pages
    (shard_series reg "repl_shard_reads" "0");
  (* Straight through the server: a segment spanning pages counts once
     per page it touches, reads and writes alike. *)
  let reg = Obs.Registry.create () in
  Obs.Registry.install reg;
  Fun.protect ~finally:Obs.Registry.uninstall (fun () ->
      run_sim (fun eng ->
          let server =
            Memnode.Server.create ~eng ~size:(Int64.of_int (16 * page)) ()
          in
          let qp =
            Rdma.Fabric.qp (Memnode.Server.connect server ()) ~name:"contract"
          in
          let buf = Buf.create (3 * page) in
          Rdma.Qp.write qp ~raddr:0L ~buf ~off:0 ~len:(3 * page);
          Rdma.Qp.read qp ~raddr:0L ~buf ~off:0 ~len:(3 * page);
          Rdma.Qp.read qp ~raddr:(Int64.of_int (page - 8)) ~buf ~off:0 ~len:16));
  check_int "writes: one per page" 3 (shard_series reg "repl_shard_writes" "0");
  check_int "reads: one per page touched" 5
    (shard_series reg "repl_shard_reads" "0")

let suite =
  [
    quick "drill tokens parse and schedule in time order" drill_tokens_parse;
    quick "malformed drill tokens are rejected" drill_tokens_reject_garbage;
    quick "create validates config and drill shard ids"
      create_validates_config;
    quick "writes mirror to every replica" writes_mirror_to_all_replicas;
    quick "granule diff bounds mirror traffic"
      granule_diff_bounds_mirror_traffic;
    quick "reads serve written bytes across pages" read_serves_written_bytes;
    quick "one block per page at RF 1, 2 and 3" one_block_per_page_at_any_rf;
    quick "failover serves last-acknowledged bytes"
      failover_serves_last_acked_bytes;
    quick "failover latency recorded once per kill"
      failover_latency_recorded_once;
    quick "RF=1 kill surfaces Unreachable" rf1_kill_is_unreachable;
    quick "double kill refuses reads and writes" double_kill_is_unreachable;
    quick "an unreachable WRITE leaves nothing staged" unreachable_write_unstages;
    quick "an RF 2 write with no dirty granule keeps residency"
      rf2_clean_write_keeps_residency;
    quick "resync restores the replication factor"
      resync_restores_replication_factor;
    quick "resync respects the bandwidth budget"
      resync_respects_bandwidth_budget;
    quick "mid-resync reads fail over, never serve stale"
      mid_resync_reads_fail_over_not_stale;
    quick "irrecoverable pages stay unserved" lost_pages_stay_unserved;
    quick "a page orphaned by a second death stays unserved"
      orphaned_page_stays_unserved;
    quick "recover of a live shard is a no-op"
      recover_is_idempotent_while_alive;
    quick "scripted drill fires on schedule" scripted_drill_fires_on_schedule;
    quick "cancel_drill disarms pending timers" cancel_drill_disarms_timers;
    quick "repl_* counters only where they can move"
      repl_keys_only_where_they_move;
    quick "single node counts every page it serves"
      single_node_counts_pages_served;
    QCheck_alcotest.to_alcotest replicated_group_agrees_with_bytes_model;
  ]
  @ List.map
      (fun topo ->
        QCheck_alcotest.to_alcotest (shared_store_agrees_with_per_shard_model topo))
      [ (2, 2); (3, 2); (3, 3) ]
