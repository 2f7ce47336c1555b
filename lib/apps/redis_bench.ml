type value_size = Fixed of int | Fb_mixed

let fb_sizes = [| 4096; 8192; 16384; 32768; 65536; 131072 |]

let sample_size rng = function
  | Fixed n -> n
  | Fb_mixed -> Sim.Rng.pick rng fb_sizes

let max_size = function
  | Fixed n -> n
  | Fb_mixed -> Array.fold_left Int.max 0 fb_sizes

(* Closed-loop benches measure the time a request spends being served
   (issue -> completion); an open-loop driver measures the time from
   the request's INTENDED arrival instant to completion, which
   includes queueing delay under overload. Conflating the two is the
   coordinated-omission bug: under load, service-time percentiles
   systematically understate what a client would actually observe.
   Every result is therefore labeled with what its histogram held. *)
type latency_kind = Service_time | Response_time

let latency_kind_name = function
  | Service_time -> "service_time"
  | Response_time -> "response_time"

type result = {
  requests : int;
  time : Sim.Time.t;
  throughput_rps : float;
  latency_kind : latency_kind;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

let key_bytes = 14

(* [key:%010d], built digit by digit: every serve request names its
   key, and [Printf.sprintf] costs ~0.3 µs per call. The two 5-digit
   halves are independent division chains. Outside [0, 10^10) the
   format's sign or extra digits apply, so defer to it. *)
let key_into b i =
  if i < 0 || i >= 10_000_000_000 then Bytes.of_string (Printf.sprintf "key:%010d" i)
  else begin
    if Bytes.length b <> key_bytes then invalid_arg "Redis_bench.key_into: buffer length";
    Bytes.set b 0 'k';
    Bytes.set b 1 'e';
    Bytes.set b 2 'y';
    Bytes.set b 3 ':';
    let hi = ref (i / 100_000) and lo = ref (i mod 100_000) in
    for p = 13 downto 9 do
      Bytes.set b p (Char.unsafe_chr (48 + (!lo mod 10)));
      Bytes.set b (p - 5) (Char.unsafe_chr (48 + (!hi mod 10)));
      lo := !lo / 10;
      hi := !hi / 10
    done;
    b
  end

let key_of i = key_into (Bytes.create key_bytes) i

let result_of_hist ~requests ~time ~kind h =
  let q p = float_of_int (Sim.Histogram.quantile h p) /. 1_000. in
  let secs = Sim.Time.to_s time in
  {
    requests;
    time;
    (* requests = 0 or a zero-duration phase must not emit nan/inf
       (they poison --json reports); the defined shape is 0. *)
    throughput_rps =
      (if requests = 0 || secs <= 0. then 0. else float_of_int requests /. secs);
    latency_kind = kind;
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
  }

(* --- Value integrity ---------------------------------------------- *)

(* Values carry a deterministic sentinel at EVERY page boundary, not
   just the first 8 bytes: a multi-page value whose tail page was
   served from the wrong remote slot, or went stale across eviction,
   fails verification even though its head page reads back fine. The
   sentinel mixes the key index with the offset so two pages of the
   same value (or the same page of two values) can never satisfy each
   other's check. *)

let page_bytes = 4096

let sentinel ~index ~off =
  Int64.logxor
    (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L)
    (Int64.of_int off)

let fill_value v ~len:n ~index =
  Bytes.fill v 0 n (Char.chr (index land 0x7F));
  let off = ref 0 in
  while !off + 8 <= n do
    Bytes.set_int64_le v !off (sentinel ~index ~off:!off);
    off := !off + page_bytes
  done

let verify_value v ~len:n ~index =
  let ok = ref true in
  let off = ref 0 in
  while !ok && !off + 8 <= n do
    if not (Int64.equal (Bytes.get_int64_le v !off) (sentinel ~index ~off:!off))
    then ok := false
    else off := !off + page_bytes
  done;
  !ok

(* --- Closed-loop drivers ------------------------------------------ *)

let run_get (ctx : Harness.ctx) ~keys ~size ~queries ~seed =
  let rds = Redis.create ctx ~keyspace_hint:keys in
  let m = Redis.mem rds in
  let rng = Sim.Rng.create seed in
  let v = Bytes.create (max_size size) in
  for i = 0 to keys - 1 do
    let n = sample_size rng size in
    fill_value v ~len:n ~index:i;
    Redis.set rds ~key:(key_of i) ~value:v ~len:n
  done;
  m.Memif.flush ();
  let h = Sim.Histogram.create () in
  let reply = ref (Bytes.create page_bytes) in
  let t0 = m.Memif.now () in
  for _ = 1 to queries do
    let i = Sim.Rng.int rng keys in
    let r0 = m.Memif.now () in
    (match Redis.get rds (key_of i) reply with
    | Some n -> assert (verify_value !reply ~len:n ~index:i)
    | None -> assert false);
    m.Memif.flush ();
    Sim.Histogram.add h (Int64.to_int (Sim.Time.sub (m.Memif.now ()) r0))
  done;
  let time = Sim.Time.sub (m.Memif.now ()) t0 in
  result_of_hist ~requests:queries ~time ~kind:Service_time h

let run_lrange (ctx : Harness.ctx) ~lists ~elements ~elem_size ~queries ~range
    ~seed =
  let rds = Redis.create ctx ~keyspace_hint:lists in
  let m = Redis.mem rds in
  let rng = Sim.Rng.create seed in
  let elem = Bytes.make elem_size 'x' in
  for i = 0 to elements - 1 do
    let l = Sim.Rng.int rng lists in
    Bytes.set_int64_le elem 0 (Int64.of_int i);
    Redis.rpush rds ~key:(key_of l) elem
  done;
  m.Memif.flush ();
  let h = Sim.Histogram.create () in
  let t0 = m.Memif.now () in
  for _ = 1 to queries do
    let l = Sim.Rng.int rng lists in
    let r0 = m.Memif.now () in
    let got = Redis.lrange rds ~key:(key_of l) ~count:range in
    ignore got;
    m.Memif.flush ();
    Sim.Histogram.add h (Int64.to_int (Sim.Time.sub (m.Memif.now ()) r0))
  done;
  let time = Sim.Time.sub (m.Memif.now ()) t0 in
  result_of_hist ~requests:queries ~time ~kind:Service_time h

type bandwidth_result = {
  del_rx_mb : float;
  del_tx_mb : float;
  get_rx_mb : float;
  get_tx_mb : float;
  series : (Sim.Time.t * int * int) list;
  del_boundary : Sim.Time.t;
}

let mb x = float_of_int x /. 1e6

let run_del_get_bandwidth (ctx : Harness.ctx) ~keys ~value_bytes ~del_fraction
    ~seed =
  let rds = Redis.create ctx ~keyspace_hint:keys in
  let m = Redis.mem rds in
  let rng = Sim.Rng.create seed in
  let v = Bytes.create value_bytes in
  for i = 0 to keys - 1 do
    fill_value v ~len:value_bytes ~index:i;
    Redis.set rds ~key:(key_of i) ~value:v ~len:value_bytes
  done;
  m.Memif.flush ();
  let bw = ctx.Harness.bw in
  Rdma.Bandwidth.reset bw;
  (* DEL phase: remove a random subset, leaving holes in pages. *)
  let alive = Array.make keys true in
  let to_del = int_of_float (float_of_int keys *. del_fraction) in
  let deleted = ref 0 in
  while !deleted < to_del do
    let i = Sim.Rng.int rng keys in
    if alive.(i) then begin
      alive.(i) <- false;
      ignore (Redis.del rds (key_of i));
      incr deleted
    end
  done;
  m.Memif.flush ();
  Dilos_quiesce.run ctx;
  let del_rx = Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx in
  let del_tx = Rdma.Bandwidth.total bw Rdma.Bandwidth.Tx in
  let del_boundary = m.Memif.now () in
  (* GET phase: read back every survivor (random order). *)
  let order = Array.init keys Fun.id in
  Sim.Rng.shuffle rng order;
  let reply = ref (Bytes.create value_bytes) in
  Array.iter
    (fun i ->
      if alive.(i) then
        match Redis.get rds (key_of i) reply with
        | Some n -> assert (verify_value !reply ~len:n ~index:i)
        | None -> assert false)
    order;
  m.Memif.flush ();
  {
    del_rx_mb = mb del_rx;
    del_tx_mb = mb del_tx;
    get_rx_mb = mb (Rdma.Bandwidth.total bw Rdma.Bandwidth.Rx - del_rx);
    get_tx_mb = mb (Rdma.Bandwidth.total bw Rdma.Bandwidth.Tx - del_tx);
    series = Rdma.Bandwidth.series bw;
    del_boundary;
  }
