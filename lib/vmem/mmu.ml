type result = Frame of int | Fault of Pte.t

let access pt ~vpn ~write =
  let leaf, i = Page_table.leaf_slot pt vpn in
  let pte = leaf.(i) in
  match Pte.tag pte with
  | Pte.Local ->
      let pte = Pte.set_accessed pte in
      let pte = if write then Pte.set_dirty pte else pte in
      leaf.(i) <- pte;
      Frame (Pte.frame pte)
  | Pte.Unmapped | Pte.Remote | Pte.Fetching | Pte.Action -> Fault pte

let probe pt ~vpn = Page_table.get pt vpn
let exception_ns = 570
let exception_cost = Sim.Time.ns exception_ns
