(* Wall-clock microbenchmarks (Bechamel) of the primitive operations
   the simulated systems are built from. These measure the *library's*
   own cost — useful for regression-tracking this repository — and are
   separate from the simulated-time experiment harness. *)

open Bechamel
open Toolkit

let pte_roundtrip () =
  let p = Vmem.Pte.make_local ~frame:1234 ~writable:true in
  let p = Vmem.Pte.set_dirty (Vmem.Pte.set_accessed p) in
  ignore (Vmem.Pte.frame p);
  ignore (Vmem.Pte.tag p)

let page_table_update =
  let pt = Vmem.Page_table.create () in
  let i = ref 0 in
  fun () ->
    incr i;
    let vpn = !i land 0xFFFF in
    Vmem.Page_table.set pt vpn (Vmem.Pte.make_remote ());
    ignore (Vmem.Page_table.get pt vpn)

let histogram_add =
  let h = Sim.Histogram.create () in
  let i = ref 0 in
  fun () ->
    incr i;
    Sim.Histogram.add h (!i land 0xFFFFF)

let rng_next =
  let r = Sim.Rng.create 1 in
  fun () -> ignore (Sim.Rng.next64 r)

let readahead_decide =
  let p = Dilos.Prefetcher.readahead () in
  fun () ->
    ignore (p.Dilos.Prefetcher.decide ~fault_vpn:100 ~hit_ratio:0.8 ~history:(fun () -> [||]))

let trend_decide =
  let p = Dilos.Prefetcher.trend_based () in
  let hist = Array.init 32 (fun i -> 1000 - (i * 3)) in
  fun () ->
    ignore (p.Dilos.Prefetcher.decide ~fault_vpn:1000 ~hit_ratio:0.8 ~history:(fun () -> hist))

let snappy_block =
  let rng = Sim.Rng.create 3 in
  let data = Apps.Snappy.generate rng 4096 in
  fun () -> ignore (Apps.Snappy.compress_bytes data)

let clamp_segments () =
  ignore
    (Dilos.Guide.clamp_segments
       [ (0, 16); (64, 16); (256, 16); (1024, 16); (2048, 16); (4000, 16) ])

let tests =
  Test.make_grouped ~name:"dilos" ~fmt:"%s/%s"
    [
      Test.make ~name:"pte_roundtrip" (Staged.stage pte_roundtrip);
      Test.make ~name:"page_table_set_get" (Staged.stage page_table_update);
      Test.make ~name:"histogram_add" (Staged.stage histogram_add);
      Test.make ~name:"rng_next64" (Staged.stage rng_next);
      Test.make ~name:"readahead_decide" (Staged.stage readahead_decide);
      Test.make ~name:"trend_decide" (Staged.stage trend_decide);
      Test.make ~name:"snappy_compress_4k" (Staged.stage snappy_block);
      Test.make ~name:"clamp_segments" (Staged.stage clamp_segments);
    ]

let run () =
  print_endline "\n== Bechamel: wall-clock cost of primitive operations ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Printf.printf "  %-32s %10.1f ns/op\n" name ns) rows
