(* Event min-heap in structure-of-arrays form. The heap orders
   [(time, seq, slot)] triples held in three parallel [int] arrays;
   [slot] indexes a stable closure array [fns], whose free slots sit
   on the [free] stack. Times are simulated nanoseconds, far below
   2^62, so they live as immediate ints and a sift moves only ints:
   no allocation and no write barrier. A push stores its closure once
   and a pop clears it once. It is the simulator's only heap and its
   single hottest structure. *)
module Eheap = struct
  type t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable fns : (unit -> unit) array; (* [ignore] in free slots *)
    mutable free : int array; (* [free.(0 .. nfree-1)]: free slots *)
    mutable nfree : int;
    mutable size : int; (* [size + nfree] = capacity *)
  }

  let create () =
    { times = [||]; seqs = [||]; slots = [||]; fns = [||]; free = [||]; nfree = 0; size = 0 }

  let length h = h.size
  let top_time h = h.times.(0)

  (* Called when full: double every array and stack the new slots. *)
  let grow h =
    let cap = h.size in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.slots <- extend h.slots 0;
    h.fns <- extend h.fns ignore;
    h.free <- Array.make ncap 0;
    for i = 0 to ncap - cap - 1 do
      h.free.(i) <- ncap - 1 - i
    done;
    h.nfree <- ncap - cap

  (* Strict "fires before": earlier time, or same time and scheduled
     earlier (lower seq). *)

  let push h time seq fn =
    if h.nfree = 0 then grow h;
    h.nfree <- h.nfree - 1;
    let slot = h.free.(h.nfree) in
    h.fns.(slot) <- fn;
    let ts = h.times and ss = h.seqs and sl = h.slots in
    let i = ref h.size in
    h.size <- h.size + 1;
    (* Sift up with a hole instead of pairwise swaps. *)
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pt = ts.(parent) in
      if time < pt || (time = pt && seq < ss.(parent)) then begin
        ts.(!i) <- pt;
        ss.(!i) <- ss.(parent);
        sl.(!i) <- sl.(parent);
        i := parent
      end
      else continue_ := false
    done;
    ts.(!i) <- time;
    ss.(!i) <- seq;
    sl.(!i) <- slot

  (* Re-seat the (time, seq, slot) triple taken from the last position,
     starting at the root. *)
  let sift_down h xt xs xslot =
    let ts = h.times and ss = h.seqs and sl = h.slots and n = h.size in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      let st = ref xt and sseq = ref xs in
      if l < n && (ts.(l) < !st || (ts.(l) = !st && ss.(l) < !sseq)) then begin
        smallest := l;
        st := ts.(l);
        sseq := ss.(l)
      end;
      if r < n && (ts.(r) < !st || (ts.(r) = !st && ss.(r) < !sseq)) then begin
        smallest := r;
        st := ts.(r);
        sseq := ss.(r)
      end;
      if !smallest <> !i then begin
        ts.(!i) <- !st;
        ss.(!i) <- !sseq;
        sl.(!i) <- sl.(!smallest);
        i := !smallest
      end
      else continue_ := false
    done;
    ts.(!i) <- xt;
    ss.(!i) <- xs;
    sl.(!i) <- xslot

  let pop_exn h =
    let slot = h.slots.(0) in
    let fn = h.fns.(slot) in
    h.fns.(slot) <- ignore;
    h.free.(h.nfree) <- slot;
    h.nfree <- h.nfree + 1;
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then sift_down h h.times.(n) h.seqs.(n) h.slots.(n);
    fn
end

(* FIFO ring of thunks ready to run at the current time. Events
   scheduled at [t.now] — every fiber wake, [yield], zero-delay [at] —
   land here in O(1) instead of paying a heap sift. *)
module Ring = struct
  type t = {
    mutable data : (unit -> unit) array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { data = Array.make 16 ignore; head = 0; len = 0 }
  let length r = r.len

  let push r fn =
    let cap = Array.length r.data in
    if r.len = cap then begin
      let nd = Array.make (cap * 2) ignore in
      for i = 0 to r.len - 1 do
        nd.(i) <- r.data.((r.head + i) land (cap - 1))
      done;
      r.data <- nd;
      r.head <- 0
    end;
    let cap = Array.length r.data in
    r.data.((r.head + r.len) land (cap - 1)) <- fn;
    r.len <- r.len + 1

  let pop_exn r =
    let mask = Array.length r.data - 1 in
    let fn = r.data.(r.head land mask) in
    r.data.(r.head land mask) <- ignore;
    r.head <- (r.head + 1) land mask;
    r.len <- r.len - 1;
    fn
end

type t = {
  mutable now : Time.t;
  mutable seq : int;
  queue : Eheap.t;
  ready : Ring.t;
  mutable laned : int;  (* lane entries queued behind their lane's head *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  (* [true] while fiber code runs (not a callback, not the loop). *)
  mutable in_fiber : bool;
}

let create () =
  {
    now = Time.zero;
    seq = 0;
    queue = Eheap.create ();
    ready = Ring.create ();
    laned = 0;
    failure = None;
    in_fiber = false;
  }

let now t = t.now

(* Ordering invariants (equal-time events fire in scheduling order, as
   before the ready ring existed):

   - an event can only enter the heap with [time > now], so every heap
     event at time [T] was scheduled before the clock reached [T] and
     therefore precedes every ring entry (which was scheduled at
     [now = T]);
   - the ring is FIFO, which equals sequence-number order among
     same-time entries;
   - the clock only advances when the ring is empty and no heap event
     remains at [now]. *)
let at t time fn =
  let c = Int64.compare time t.now in
  if c < 0 then invalid_arg "Engine.at: scheduling in the past"
  else if c = 0 then Ring.push t.ready fn
  else begin
    t.seq <- t.seq + 1;
    Eheap.push t.queue (Int64.to_int time) t.seq fn
  end

let after t delay fn = at t (Time.add t.now delay) fn

(* Cancellable timers piggyback on [at]: the heap/ring slot stays
   occupied, but a cancelled timer's callback is a no-op. Leaving the
   dead event in place (instead of deleting from the heap) keeps every
   other event's (time, seq) position — and therefore the global event
   order — exactly as if the timer had never been armed and dropped. *)
type timer = { mutable tm_state : int } (* 0 pending / 1 fired / 2 cancelled *)

let timer_at t time fn =
  let tm = { tm_state = 0 } in
  at t time (fun () ->
      if tm.tm_state = 0 then begin
        tm.tm_state <- 1;
        fn ()
      end);
  tm

let timer_after t delay fn = timer_at t (Time.add t.now delay) fn

(* Lanes. A source that schedules its events in nondecreasing time
   order (one QP's completions) keeps them in a FIFO of [(time, seq,
   fn)] whose head alone sits in the heap, under the lane's permanent
   [l_fire] thunk. Each entry takes its seq when scheduled, exactly as
   [at] would, and the next head enters the heap with that same
   [(time, seq)] when the current one fires, so the global order is
   the one [at] gives: the heap's top is still the earliest event, and
   a head pushed at [now] was scheduled before the clock reached it,
   so it precedes the ring as any heap event at [now] does. An event
   earlier than its lane's tail goes straight to the heap. A popped
   entry's closure is left in place until overwritten: the retention
   is bounded by the lane's capacity, and a store per pop would cost a
   write barrier. *)
type lane = {
  l_eng : t;
  mutable l_times : int array;
  mutable l_seqs : int array;
  mutable l_fns : (unit -> unit) array;
  mutable l_head : int;
  mutable l_len : int;
  mutable l_fire : unit -> unit;
}

let lane_fire l () =
  let t = l.l_eng in
  let mask = Array.length l.l_fns - 1 in
  let fn = Array.unsafe_get l.l_fns l.l_head in
  l.l_head <- (l.l_head + 1) land mask;
  l.l_len <- l.l_len - 1;
  if l.l_len > 0 then begin
    t.laned <- t.laned - 1;
    Eheap.push t.queue l.l_times.(l.l_head) l.l_seqs.(l.l_head) l.l_fire
  end;
  fn ()

let lane t =
  let l =
    {
      l_eng = t;
      l_times = Array.make 8 0;
      l_seqs = Array.make 8 0;
      l_fns = Array.make 8 ignore;
      l_head = 0;
      l_len = 0;
      l_fire = ignore;
    }
  in
  l.l_fire <- lane_fire l;
  l

(* Called when full: double the ring, unrolling it from its head. *)
let lane_grow l =
  let cap = Array.length l.l_fns in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    for i = 0 to l.l_len - 1 do
      b.(i) <- a.((l.l_head + i) land (cap - 1))
    done;
    b
  in
  l.l_times <- unroll l.l_times 0;
  l.l_seqs <- unroll l.l_seqs 0;
  l.l_fns <- unroll l.l_fns ignore;
  l.l_head <- 0

let lane_at l time fn =
  let t = l.l_eng in
  let c = Int64.compare time t.now in
  if c < 0 then invalid_arg "Engine.lane_at: scheduling in the past"
  else if c = 0 then Ring.push t.ready fn
  else begin
    t.seq <- t.seq + 1;
    let ti = Int64.to_int time in
    let mask = Array.length l.l_fns - 1 in
    if l.l_len > 0 && ti < l.l_times.((l.l_head + l.l_len - 1) land mask) then
      Eheap.push t.queue ti t.seq fn
    else begin
      if l.l_len = Array.length l.l_fns then lane_grow l;
      let i = (l.l_head + l.l_len) land (Array.length l.l_fns - 1) in
      l.l_times.(i) <- ti;
      l.l_seqs.(i) <- t.seq;
      l.l_fns.(i) <- fn;
      l.l_len <- l.l_len + 1;
      if l.l_len = 1 then Eheap.push t.queue ti t.seq l.l_fire
      else t.laned <- t.laned + 1
    end
  end
let cancel tm = if tm.tm_state = 0 then tm.tm_state <- 2
let timer_pending tm = tm.tm_state = 0

(* Fibers block through two effects. [Suspend register] captures the
   continuation and hands [register] a wake function that re-schedules
   it on the ready ring. [Park_until time] is a sleep that has to park:
   its one heap event resumes the fiber itself. *)
type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Park_until : int -> unit Effect.t

(* A parked sleep's event, popped at its time. A wake pushed onto the
   ring would run next iff the ring is empty and no heap event is due
   now (heap events at [now] precede the ring), so resume in place
   then, and queue behind them otherwise. *)
let[@inline] resume_now t =
  t.ready.Ring.len = 0
  && (t.queue.Eheap.size = 0 || Eheap.top_time t.queue <> Int64.to_int t.now)

let fiber_handler t (f : unit -> unit) () =
  let open Effect.Deep in
  t.in_fiber <- true;
  match_with f ()
    {
      retc = (fun () -> t.in_fiber <- false);
      exnc =
        (fun e ->
          t.in_fiber <- false;
          if t.failure = None then
            t.failure <- Some (e, Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.in_fiber <- false;
                  let woken = ref false in
                  let wake () =
                    if !woken then invalid_arg "Engine: double wake of a fiber";
                    woken := true;
                    Ring.push t.ready (fun () ->
                        t.in_fiber <- true;
                        continue k ())
                  in
                  (* An exception inside [register] belongs to the
                     suspending fiber, not to the engine loop. *)
                  match register wake with
                  | () -> ()
                  | exception e ->
                      t.in_fiber <- true;
                      discontinue k e)
          | Park_until time ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.in_fiber <- false;
                  let go () =
                    t.in_fiber <- true;
                    continue k ()
                  in
                  t.seq <- t.seq + 1;
                  Eheap.push t.queue time t.seq (fun () ->
                      if resume_now t then go () else Ring.push t.ready go))
          | _ -> None);
    }

let spawn t ?name:_ f = Ring.push t.ready (fiber_handler t f)
let suspend _t register = Effect.perform (Suspend register)

(* In-place clock advance. A sleep is uncontended when its wake would
   be the very next event: the caller is a fiber, the ready ring is
   empty and every heap event is due strictly after [time]. Parking
   would then push the wake at (time, seq + 1), pop it straight away
   (nothing else is due first, and nothing runs in between to schedule
   anything), and resume the fiber with [now = time]. Consuming the
   same seq and setting the clock is that, minus the park. *)
let sleep_until t time =
  if Int64.compare time t.now > 0 then begin
    let ti = Int64.to_int time in
    if
      t.in_fiber && t.ready.Ring.len = 0
      && (t.queue.Eheap.size = 0 || Eheap.top_time t.queue > ti)
    then begin
      t.seq <- t.seq + 1;
      t.now <- time
    end
    else Effect.perform (Park_until ti)
  end

let sleep t delay = sleep_until t (Time.add t.now delay)
let yield t = Effect.perform (Suspend (fun wake -> at t t.now wake))

(* Heap events at [t.now] precede the ring (see [at]); the ring drains
   before the clock may advance. *)
let step t =
  if t.queue.Eheap.size > 0 && Eheap.top_time t.queue = Int64.to_int t.now
  then begin
    (Eheap.pop_exn t.queue) ();
    true
  end
  else if t.ready.Ring.len > 0 then begin
    (Ring.pop_exn t.ready) ();
    true
  end
  else if t.queue.Eheap.size > 0 then begin
    let time = Eheap.top_time t.queue in
    let fn = Eheap.pop_exn t.queue in
    t.now <- Int64.of_int time;
    fn ();
    true
  end
  else false

let check_failure t =
  match t.failure with
  | Some (e, bt) ->
      t.failure <- None;
      Printexc.raise_with_backtrace e bt
  | None -> ()

let run t =
  while t.failure = None && step t do
    ()
  done;
  check_failure t

let pending t = Eheap.length t.queue + Ring.length t.ready + t.laned
