type t = { eng : Engine.t; mutable q : (unit -> unit) list }
(* [q] holds wake functions in reverse waiting order. *)

let create eng = { eng; q = [] }
let wait cv = Engine.suspend cv.eng (fun wake -> cv.q <- wake :: cv.q)

let signal cv =
  match List.rev cv.q with
  | [] -> ()
  | oldest :: rest ->
      cv.q <- List.rev rest;
      oldest ()

(* Most broadcasts find no waiter (a write-back completion, a page
   mapped with nobody waiting on it): return before reversing. *)
let broadcast cv =
  match cv.q with
  | [] -> ()
  | q ->
      cv.q <- [];
      List.iter (fun wake -> wake ()) (List.rev q)

let rec wait_for cv pred =
  if not (pred ()) then begin
    wait cv;
    wait_for cv pred
  end

let waiters cv = List.length cv.q
