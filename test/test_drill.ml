(* Recovery-drill goldens: Apps.Drill end to end.

   The load-bearing property is bit-identity — a kill mid-run must
   leave every kernel's result digest exactly equal to the failure-free
   run's, and the same seed must reproduce the same JSON report byte
   for byte. Scales are shrunk from the CLI defaults so each drill
   (two full harness runs) stays fast, but kept well above the local
   DRAM so the kill actually lands on remotely-held pages. *)

open Util
module D = Apps.Drill
module H = Apps.Harness

let dilos = H.Dilos Dilos.Kernel.Readahead

(* 2 MiB working set over 256 KiB of local DRAM. *)
let seq_drill ?(system = dilos) ?seed ?replication ?shards ?recover_after () =
  D.run ~system ~program:D.seq ~scale:512 ~local_mem:(256 * 1024) ?seed
    ?replication ?shards ?recover_after ()

let kill_fraction_is_seeded_and_bounded () =
  let clean_ns = 1_000_000 in
  for seed = 0 to 199 do
    let k = D.kill_at_ns ~clean_ns ~seed in
    check_bool
      (Printf.sprintf "kill for seed %d in [250,750] permille (got %d ns)" seed k)
      true
      (k >= 250_000 && k <= 750_000);
    check_int "seed-deterministic" k (D.kill_at_ns ~clean_ns ~seed)
  done

let assert_matched name (r : D.result) =
  check_bool (name ^ ": digests match") true r.D.r_match;
  check_i64 (name ^ ": digest bit-identity") r.D.r_clean_digest
    r.D.r_drill_digest;
  check_int (name ^ ": one kill") 1 r.D.r_kills;
  check_bool (name ^ ": kill landed mid-run") true
    (r.D.r_kill_at_ns > 0 && r.D.r_kill_at_ns < r.D.r_clean_ns);
  check_bool (name ^ ": writes were mirrored") true (r.D.r_mirror_writes > 0)

let seq_drill_is_bit_identical () =
  let r = seq_drill () in
  assert_matched "seq" r;
  check_bool "failover reads observed" true (r.D.r_failover_reads > 0);
  check_bool "failover latency >= detection outage" true
    (r.D.r_failover_latency_ns >= r.D.r_detect_ns);
  check_int "no scripted recovery" 0 r.D.r_recovers;
  check_int "nothing lost at RF=2" 0 r.D.r_lost_pages

let quicksort_drill_is_bit_identical () =
  assert_matched "quicksort"
    (D.run ~system:dilos ~program:D.quicksort ~scale:60_000
       ~local_mem:(128 * 1024) ())

let kmeans_drill_recovers () =
  let r =
    D.run ~system:dilos ~program:D.kmeans ~scale:60_000 ~local_mem:(128 * 1024)
      ~recover_after:(Sim.Time.us 200) ()
  in
  assert_matched "kmeans" r;
  check_int "scripted recovery fired" 1 r.D.r_recovers;
  check_bool "resync moved pages" true (r.D.r_resync_pages > 0);
  check_bool "recovery time measured" true (r.D.r_recovery_ns > 0);
  check_int "recovery restored RF, nothing lost" 0 r.D.r_lost_pages

let redis_drill_is_bit_identical () =
  assert_matched "redis"
    (D.run ~system:dilos ~program:D.redis ~scale:4_000 ~local_mem:(256 * 1024) ())

let fastswap_drill_is_bit_identical () =
  assert_matched "fastswap" (seq_drill ~system:H.Fastswap ())

let aifm_quicksort_drill_is_bit_identical () =
  (* 1.25 MiB of swaps over 1 MiB of local DRAM: the evacuator's
     chunk stores overlap the sort's writes into the same chunks. A
     store landing while its WRITE is on the wire must keep the chunk
     resident, or the swap is lost and the output is not sorted. *)
  assert_matched "aifm quicksort"
    (D.run ~system:H.Aifm ~program:D.quicksort ~scale:160_000
       ~local_mem:(1024 * 1024) ())

let same_seed_json_is_byte_identical () =
  let a = seq_drill ~seed:1234 ~recover_after:(Sim.Time.us 300) () in
  let b = seq_drill ~seed:1234 ~recover_after:(Sim.Time.us 300) () in
  Alcotest.(check string) "to_json byte-identical" (D.to_json a) (D.to_json b);
  Alcotest.(check string)
    "report_json byte-identical"
    (D.report_json [ a; a ])
    (D.report_json [ b; b ])

let different_seed_moves_the_kill () =
  (* Not a tautology: the kill instant derives from seed AND clean
     elapsed. Two seeds must script distinct kill instants, and each
     drill must still match its own clean run bit for bit. (The clean
     digests themselves differ — the seed feeds the data pattern.) *)
  let a = seq_drill ~seed:1 () and b = seq_drill ~seed:2 () in
  check_bool "kill instants differ" true
    (not (Int.equal a.D.r_kill_at_ns b.D.r_kill_at_ns));
  assert_matched "seed 1" a;
  assert_matched "seed 2" b

let rf1_kill_loses_the_page () =
  List.iter
    (fun system ->
      match seq_drill ~system ~replication:1 ~shards:2 () with
      | exception Dilos.Cpu.Page_lost _ -> ()
      | r ->
          Alcotest.failf
            "%s: RF=1 drill should raise Page_lost, produced a result \
             (match=%b)"
            (H.system_name system) r.D.r_match)
    [ dilos; H.Fastswap; H.Aifm ]

let suite =
  [
    quick "kill fraction is seeded and stays in [250,750]"
      kill_fraction_is_seeded_and_bounded;
    quick "seq drill is bit-identical under shard kill"
      seq_drill_is_bit_identical;
    quick "quicksort drill is bit-identical" quicksort_drill_is_bit_identical;
    quick "kmeans drill recovers and resyncs" kmeans_drill_recovers;
    quick "redis drill is bit-identical" redis_drill_is_bit_identical;
    quick "fastswap drill is bit-identical" fastswap_drill_is_bit_identical;
    quick "aifm quicksort drill is bit-identical"
      aifm_quicksort_drill_is_bit_identical;
    quick "same seed yields byte-identical JSON"
      same_seed_json_is_byte_identical;
    quick "different seed moves the kill instant"
      different_seed_moves_the_kill;
    quick "RF=1 kill surfaces Page_lost" rf1_kill_loses_the_page;
  ]
