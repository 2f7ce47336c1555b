type stats = {
  mutable get_activations : int;
  mutable lrange_activations : int;
  mutable chained_nodes : int;
}

(* How many nodes ahead the LRANGE guide runs. *)
let chase_depth = 2
let page = Vmem.Addr.page_size

type state = {
  mutable cur_sds : int64;
  mutable cur_node : int64;
  st : stats;
}

let prefetch_span (ops : Dilos.Guide.prefetch_ops) addr len =
  let first = Vmem.Addr.vpn addr in
  let last = Vmem.Addr.vpn (Int64.add addr (Int64.of_int (Int.max 0 (len - 1)))) in
  for vpn = first to last do
    ops.Dilos.Guide.pf_prefetch (Vmem.Addr.base vpn)
  done

(* Chase the quicklist chain: subpage-fetch the node struct, prefetch
   its ziplist, recurse on the next node. The callbacks run in RDMA
   completion context, so every step is asynchronous — the SubPG/PG
   pipeline of Fig. 11. *)
let rec chase_node state (ops : Dilos.Guide.prefetch_ops) node depth =
  if depth > 0 && not (Int64.equal node 0L) then begin
    state.st.chained_nodes <- state.st.chained_nodes + 1;
    ops.Dilos.Guide.pf_fetch_sub node Quicklist.node_size (fun b ->
        let next = Bytes.get_int64_le b Quicklist.node_next_off in
        let zl = Bytes.get_int64_le b Quicklist.node_zl_off in
        let zlbytes = Int32.to_int (Bytes.get_int32_le b Quicklist.node_zlbytes_off) in
        if not (Int64.equal zl 0L) && zlbytes > 0 && zlbytes <= 1 lsl 20 then
          prefetch_span ops zl zlbytes;
        if not (Int64.equal next 0L) then begin
          ops.Dilos.Guide.pf_prefetch next;
          chase_node state ops next (depth - 1)
        end)
  end

let handle_get state (ops : Dilos.Guide.prefetch_ops) =
  state.st.get_activations <- state.st.get_activations + 1;
  let sds = state.cur_sds in
  (* Speculatively start on the next page right away — most values
     span at least one more — while the header subpage (which
     overtakes the in-flight page fetch) reveals the exact count. *)
  ops.Dilos.Guide.pf_prefetch (Vmem.Addr.base (Vmem.Addr.vpn sds + 1));
  ops.Dilos.Guide.pf_fetch_sub sds Sds.header_size (fun b ->
      let len = Int32.to_int (Bytes.get_int32_le b 0) in
      if len > 0 && len <= 1 lsl 27 then begin
        let total = Sds.total_size len in
        let first_page_end = page - Vmem.Addr.offset sds in
        if total > first_page_end then
          prefetch_span ops
            (Vmem.Addr.base (Vmem.Addr.vpn sds + 1))
            (total - first_page_end)
      end)

let on_fault state ops (info : Dilos.Guide.fault_info) =
  let fault_vpn = Vmem.Addr.vpn info.Dilos.Guide.fi_addr in
  if
    (not (Int64.equal state.cur_sds 0L))
    && fault_vpn = Vmem.Addr.vpn state.cur_sds
  then begin
    handle_get state ops;
    true
  end
  else if
    (not (Int64.equal state.cur_node 0L))
    && fault_vpn = Vmem.Addr.vpn state.cur_node
  then begin
    state.st.lrange_activations <- state.st.lrange_activations + 1;
    chase_node state ops state.cur_node chase_depth;
    true
  end
  else false

let install (ctx : Harness.ctx) =
  let st = { get_activations = 0; lrange_activations = 0; chained_nodes = 0 } in
  (match ctx.Harness.instance with
  | Harness.I_fastswap _ | Harness.I_aifm _ -> ()
  | Harness.I_dilos k ->
      let state = { cur_sds = 0L; cur_node = 0L; st } in
      let loader = Dilos.Kernel.loader k in
      Dilos.Loader.register_hook loader Redis.hook_get_sds (fun addr ->
          state.cur_sds <- addr;
          state.cur_node <- 0L);
      let ops = Dilos.Kernel.prefetch_ops k ~core:0 in
      Dilos.Loader.register_hook loader Redis.hook_lrange_node (fun addr ->
          state.cur_node <- addr;
          state.cur_sds <- 0L;
          (* Proactive: every time the traversal reaches a node, keep
             the SubPG/PG pipeline (Fig. 11) running [chase_depth]
             nodes ahead — local node structs are parsed for free,
             remote ones via subpage fetches. *)
          chase_node state ops addr chase_depth);
      Dilos.Kernel.set_prefetch_guide k
        (Some
           {
             Dilos.Guide.pg_name = "redis-app-aware";
             pg_on_fault = (fun ops info -> on_fault state ops info);
           }));
  st
