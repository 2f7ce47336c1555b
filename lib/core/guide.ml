type prefetch_ops = {
  pf_prefetch : int64 -> unit;
  pf_fetch_sub : int64 -> int -> (bytes -> unit) -> unit;
  pf_is_local : int64 -> bool;
  pf_now : unit -> Sim.Time.t;
}

type fault_info = {
  fi_addr : int64;
  fi_hit_ratio : float;
  fi_history : int array;
}

type prefetch_guide = {
  pg_name : string;
  pg_on_fault : prefetch_ops -> fault_info -> bool;
}

type reclaim_guide = {
  rg_name : string;
  rg_live_segments : int64 -> (int * int) list option;
}

(* Merge the pair of adjacent segments separated by the smallest gap
   until the vector fits. Merging a gap re-transfers the dead bytes in
   between, which is exactly the trade-off the paper's guide makes to
   keep vectors short. *)
let rec clamp_segments segs =
  if List.length segs <= Params.guided_max_vector then segs
  else begin
    let arr = Array.of_list segs in
    let best = ref 0 and best_gap = ref max_int in
    for i = 0 to Array.length arr - 2 do
      let off1, len1 = arr.(i) and off2, _ = arr.(i + 1) in
      let gap = off2 - (off1 + len1) in
      if gap < !best_gap then begin
        best_gap := gap;
        best := i
      end
    done;
    let off1, _ = arr.(!best) and off2, len2 = arr.(!best + 1) in
    arr.(!best) <- (off1, off2 + len2 - off1);
    let merged =
      Array.to_list arr
      |> List.filteri (fun i _ -> i <> !best + 1)
    in
    clamp_segments merged
  end
