(* Recovery drills: run a kernel on a replicated memory node, kill a
   shard at a seeded instant, and prove the run still produces the
   exact bytes of a failure-free run — while reporting what the
   failure cost (degraded window, failover latency, resync time).

   The drill programs are compact Memif kernels whose entire result is
   one FNV-1a digest of the data they read back from disaggregated
   memory, so "bit-identical to the no-failure golden" is a single
   int64 comparison, and the same four access patterns (stream, swap
   -heavy sort, iterative scans, pointer chasing) exercise the
   replica group's read-failover and writeback-mirroring paths. *)

(* ---------------------------------------------------------------- *)
(* Digest and deterministic mixing                                   *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L
let fnv64 h v = Int64.mul (Int64.logxor h v) fnv_prime

let lcg s = Int64.add (Int64.mul s 6364136223846793005L) 1442695040888963407L

(* splitmix64 finalizer: one well-mixed word per seed, used to place
   the kill instant inside the run deterministically. *)
let mix seed =
  let z = Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* ---------------------------------------------------------------- *)
(* Kernels                                                           *)

(* Sequential stream: write an LCG pattern through every page, then
   read it all back. Writebacks mirror on eviction; the read pass
   refetches through whichever replicas survive. *)
let k_seq (m : Memif.t) ~scale ~seed =
  let pages = Int.max 1 scale in
  let base = m.Memif.malloc (pages * 4096) in
  let v = ref (lcg (Int64.of_int (seed lor 1))) in
  for p = 0 to pages - 1 do
    for j = 0 to 15 do
      v := lcg !v;
      m.Memif.write_u64_at base ((p * 4096) + (j * 256)) !v
    done
  done;
  m.Memif.flush ();
  let h = ref fnv_basis in
  for p = 0 to pages - 1 do
    for j = 0 to 15 do
      h := fnv64 !h (m.Memif.read_u64_at base ((p * 4096) + (j * 256)))
    done
  done;
  m.Memif.free base;
  !h

(* In-place quicksort of remote u64s (iterative, explicit stack):
   heavy mixed read/write traffic with data-dependent access order —
   the adversarial case for failover correctness. *)
let k_quicksort (m : Memif.t) ~scale ~seed =
  let n = Int.max 2 scale in
  let base = m.Memif.malloc (n * 8) in
  let get i = m.Memif.read_u64_at base (i * 8) in
  let set i v = m.Memif.write_u64_at base (i * 8) v in
  let s = ref (Int64.of_int ((seed * 2) + 1)) in
  for i = 0 to n - 1 do
    s := lcg !s;
    set i !s
  done;
  let stack = Stack.create () in
  Stack.push (0, n - 1) stack;
  while not (Stack.is_empty stack) do
    let lo, hi = Stack.pop stack in
    if lo < hi then begin
      (* Median-of-three pivot to keep the stack shallow on the LCG's
         already-random input. *)
      let mid = lo + ((hi - lo) / 2) in
      let a = get lo and b = get mid and c = get hi in
      let pivot =
        if Int64.compare a b <= 0 then
          if Int64.compare b c <= 0 then b
          else if Int64.compare a c <= 0 then c
          else a
        else if Int64.compare a c <= 0 then a
        else if Int64.compare b c <= 0 then c
        else b
      in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while Int64.compare (get !i) pivot < 0 do incr i done;
        while Int64.compare (get !j) pivot > 0 do decr j done;
        if !i <= !j then begin
          let vi = get !i and vj = get !j in
          set !i vj;
          set !j vi;
          incr i;
          decr j
        end
      done;
      if lo < !j then Stack.push (lo, !j) stack;
      if !i < hi then Stack.push (!i, hi) stack
    end
  done;
  m.Memif.flush ();
  let h = ref fnv_basis in
  let prev = ref Int64.min_int in
  let sorted = ref true in
  for i = 0 to n - 1 do
    let v = get i in
    if Int64.compare v !prev < 0 then sorted := false;
    prev := v;
    h := fnv64 !h v
  done;
  m.Memif.free base;
  if not !sorted then failwith "Drill.quicksort: output not sorted";
  !h

(* Integer k-means (fixed-point, no floats → bit-exact digests):
   repeated full scans of the point array, centroids kept local. *)
let k_kmeans (m : Memif.t) ~scale ~seed =
  let n = Int.max 8 scale in
  let k = 4 and iters = 3 in
  let base = m.Memif.malloc (n * 8) in
  let s = ref (Int64.of_int ((seed * 4) + 3)) in
  for i = 0 to n - 1 do
    s := lcg !s;
    let x = Int64.to_int (Int64.logand !s 0xFFFFFL) in
    s := lcg !s;
    let y = Int64.to_int (Int64.logand !s 0xFFFFFL) in
    m.Memif.write_u32_at base (i * 8) x;
    m.Memif.write_u32_at base ((i * 8) + 4) y
  done;
  m.Memif.flush ();
  let cx = Array.make k 0 and cy = Array.make k 0 in
  for c = 0 to k - 1 do
    (* First k points seed the centroids. *)
    cx.(c) <- m.Memif.read_u32_at base (c * 8);
    cy.(c) <- m.Memif.read_u32_at base ((c * 8) + 4)
  done;
  let counts = Array.make k 0 in
  for _it = 1 to iters do
    let sx = Array.make k 0 and sy = Array.make k 0 in
    Array.fill counts 0 k 0;
    for i = 0 to n - 1 do
      let x = m.Memif.read_u32_at base (i * 8) in
      let y = m.Memif.read_u32_at base ((i * 8) + 4) in
      let best = ref 0 and best_d = ref max_int in
      for c = 0 to k - 1 do
        let dx = x - cx.(c) and dy = y - cy.(c) in
        let d = (dx * dx) + (dy * dy) in
        if d < !best_d then begin
          best_d := d;
          best := c
        end
      done;
      sx.(!best) <- sx.(!best) + x;
      sy.(!best) <- sy.(!best) + y;
      counts.(!best) <- counts.(!best) + 1
    done;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then begin
        cx.(c) <- sx.(c) / counts.(c);
        cy.(c) <- sy.(c) / counts.(c)
      end
    done
  done;
  m.Memif.free base;
  let h = ref fnv_basis in
  for c = 0 to k - 1 do
    h := fnv64 !h (Int64.of_int cx.(c));
    h := fnv64 !h (Int64.of_int cy.(c));
    h := fnv64 !h (Int64.of_int counts.(c))
  done;
  !h

(* Dict (Redis hash table) fill + zipf-less random lookups: pointer
   chasing through chained buckets in remote memory. Values are
   key-derived integers, so the digest is allocator-independent. *)
let k_redis (m : Memif.t) ~scale ~seed =
  let keys = Int.max 16 scale in
  let d = Dict.create m ~size_hint:keys in
  let key_of i = Bytes.of_string (Printf.sprintf "drill:%d:%08x" seed i) in
  let value_of i = fnv64 (Int64.of_int (seed + 1)) (Int64.of_int i) in
  for i = 0 to keys - 1 do
    Dict.insert d ~key:(key_of i) ~value:(value_of i)
  done;
  m.Memif.flush ();
  let h = ref fnv_basis in
  let s = ref (Int64.of_int ((seed * 8) + 5)) in
  for _q = 0 to (keys * 2) - 1 do
    s := lcg !s;
    let i = Int64.to_int (Int64.logand !s 0x3FFFFFFFL) mod keys in
    match Dict.find d (key_of i) with
    | Some v ->
        if not (Int64.equal v (value_of i)) then
          failwith "Drill.redis: wrong value bytes";
        h := fnv64 !h v
    | None -> failwith "Drill.redis: inserted key missing"
  done;
  h := fnv64 !h (Int64.of_int (Dict.count d));
  !h

(* The program table. Each default scale makes a working set a small
   multiple of the default drill-local-DRAM (1 MiB): 4 MiB of pages,
   2.5 MiB of u64s or of 2-d points, ~2 MiB of dict + SDS. Enough
   eviction traffic to mirror writebacks and enough refetches to hit
   failover. *)
type program = {
  name : string;
  scale : int;
  digest : Memif.t -> scale:int -> seed:int -> int64;
}

let seq = { name = "seq"; scale = 1024; digest = k_seq }
let quicksort = { name = "quicksort"; scale = 320_000; digest = k_quicksort }
let kmeans = { name = "kmeans"; scale = 320_000; digest = k_kmeans }
let redis = { name = "redis"; scale = 20_000; digest = k_redis }
let programs = [ seq; quicksort; kmeans; redis ]

(* ---------------------------------------------------------------- *)
(* The drill                                                         *)

type result = {
  r_program : program;
  r_system : string;
  r_scale : int;
  r_seed : int;
  r_shards : int;
  r_replication : int;
  r_kill_shard : int;
  r_kill_at_ns : int;
  r_detect_ns : int;
  r_recover_at_ns : int option;
  r_clean_ns : int;  (** failure-free run, same replica config *)
  r_drill_ns : int;
  r_clean_digest : int64;
  r_drill_digest : int64;
  r_match : bool;
  r_failover_reads : int;
  r_failover_latency_ns : int;
  r_recovery_ns : int;
  r_resync_pages : int;
  r_resync_bytes : int;
  r_lost_pages : int;
  r_mirror_writes : int;
  r_mirror_bytes : int;
  r_rdma_retries : int;
  r_kills : int;
  r_recovers : int;
}

(* The kill lands at a seeded fraction (25–75%) of the clean run's
   elapsed time — deep enough into the run that pages are out on the
   shards, early enough that plenty of accesses follow it. *)
let kill_fraction_permille seed =
  250 + Int64.to_int (Int64.rem (Int64.logand (mix seed) Int64.max_int) 501L)

let kill_at_ns ~clean_ns ~seed =
  Int.max 1 (clean_ns / 1000 * kill_fraction_permille seed)

let run ~system ~program ?(scale = program.scale) ?(local_mem = 1024 * 1024)
    ?(seed = 42) ?(shards = 2) ?(replication = 2) ?(kill_shard = 0)
    ?(detect = Sim.Time.us 50) ?recover_after () =
  let work ctx = program.digest (ctx.Harness.mem ~core:0) ~scale ~seed in
  (* Clean pass: same replica topology, no failure. Its digest is the
     golden; its elapsed time places the kill. *)
  let clean = Harness.run system ~local_mem ~shards ~replication work in
  let clean_ns = Int64.to_int clean.Harness.elapsed in
  let kill_at_ns = kill_at_ns ~clean_ns ~seed in
  let detect_ns = Int64.to_int detect in
  let recover_at_ns =
    Option.map (fun d -> kill_at_ns + Int64.to_int d) recover_after
  in
  (* The kill verb itself is wire-passthrough (Faults.Spec.is_zero
     ignores it); the composed blackout window models the detection
     outage, so the drill also exercises the QP retry machinery. *)
  let spec_str =
    Printf.sprintf "kill-shard=%d@%dns,blackout=%dns@%dns%s" kill_shard
      kill_at_ns detect_ns kill_at_ns
      (match recover_at_ns with
      | None -> ""
      | Some t -> Printf.sprintf ",recover-shard=%d@%dns" kill_shard t)
  in
  let fault_spec =
    match Faults.Spec.parse spec_str with
    | Ok s -> s
    | Error msg -> invalid_arg ("Drill.run: bad generated spec: " ^ msg)
  in
  let drill =
    Harness.run system ~local_mem ~shards ~replication ~fault_spec
      ~fault_seed:seed work
  in
  let g k = Sim.Stats.get drill.Harness.run_stats k in
  {
    r_program = program;
    r_system = Harness.system_name system;
    r_scale = scale;
    r_seed = seed;
    r_shards = Int.max shards replication;
    r_replication = replication;
    r_kill_shard = kill_shard;
    r_kill_at_ns = kill_at_ns;
    r_detect_ns = detect_ns;
    r_recover_at_ns = recover_at_ns;
    r_clean_ns = clean_ns;
    r_drill_ns = Int64.to_int drill.Harness.elapsed;
    r_clean_digest = clean.Harness.value;
    r_drill_digest = drill.Harness.value;
    r_match = Int64.equal clean.Harness.value drill.Harness.value;
    r_failover_reads = g "repl_failover_reads";
    r_failover_latency_ns = g "repl_failover_latency_ns";
    r_recovery_ns = g "repl_recovery_ns";
    r_resync_pages = g "repl_resync_pages";
    r_resync_bytes = g "repl_resync_bytes";
    r_lost_pages = g "repl_lost_pages";
    r_mirror_writes = g "repl_mirror_writes";
    r_mirror_bytes = g "repl_mirror_bytes";
    r_rdma_retries = g "rdma_retries";
    r_kills = g "repl_kills";
    r_recovers = g "repl_recovers";
  }

let vacuous r =
  r.r_failover_reads = 0 && r.r_lost_pages = 0 && r.r_rdma_retries = 0
  && r.r_resync_pages = 0

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)

(* Deterministic JSON: fixed field order, integers and hex digests
   only (no floats, no wall clock) — same seed, byte-identical file;
   CI double-runs and cmps. *)
let json_buf b r =
  let p fmt = Printf.bprintf b fmt in
  p "{\"app\": \"%s\", \"system\": \"%s\", \"scale\": %d, \"seed\": %d,\n"
    r.r_program.name r.r_system r.r_scale r.r_seed;
  p " \"shards\": %d, \"replication\": %d, \"kill_shard\": %d,\n" r.r_shards
    r.r_replication r.r_kill_shard;
  p " \"kill_at_ns\": %d, \"detect_ns\": %d, \"recover_at_ns\": %s,\n"
    r.r_kill_at_ns r.r_detect_ns
    (match r.r_recover_at_ns with
    | None -> "null"
    | Some t -> string_of_int t);
  p " \"clean_ns\": %d, \"drill_ns\": %d,\n" r.r_clean_ns r.r_drill_ns;
  p " \"clean_digest\": \"%016Lx\", \"drill_digest\": \"%016Lx\", \
     \"digests_match\": %b,\n"
    r.r_clean_digest r.r_drill_digest r.r_match;
  p " \"failover_reads\": %d, \"failover_latency_ns\": %d,\n" r.r_failover_reads
    r.r_failover_latency_ns;
  p " \"recovery_ns\": %d, \"resync_pages\": %d, \"resync_bytes\": %d, \
     \"lost_pages\": %d,\n"
    r.r_recovery_ns r.r_resync_pages r.r_resync_bytes r.r_lost_pages;
  p " \"mirror_writes\": %d, \"mirror_bytes\": %d, \"rdma_retries\": %d, \
     \"kills\": %d, \"recovers\": %d}"
    r.r_mirror_writes r.r_mirror_bytes r.r_rdma_retries r.r_kills r.r_recovers

let to_json r =
  let b = Buffer.create 512 in
  json_buf b r;
  Buffer.add_char b '\n';
  Buffer.contents b

let report_json rs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_buf b r)
    rs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let pp ppf r =
  (* One pre-rendered line: Format must not re-wrap the summary. *)
  Format.pp_print_string ppf
    (Printf.sprintf
       "%-9s kill shard %d @ %.3f ms%s: digest %s, clean %.3f ms -> drill \
        %.3f ms, failover %d reads / %.1f us%s"
       r.r_program.name r.r_kill_shard
       (float_of_int r.r_kill_at_ns /. 1e6)
       (match r.r_recover_at_ns with
       | None -> ""
       | Some t -> Printf.sprintf " (recover @ %.3f ms)" (float_of_int t /. 1e6))
       (if r.r_match then "MATCH" else "MISMATCH")
       (float_of_int r.r_clean_ns /. 1e6)
       (float_of_int r.r_drill_ns /. 1e6)
       r.r_failover_reads
       (float_of_int r.r_failover_latency_ns /. 1e3)
       (if r.r_recovers > 0 then
          Printf.sprintf ", resync %d pages in %.1f us" r.r_resync_pages
            (float_of_int r.r_recovery_ns /. 1e3)
        else ""))
