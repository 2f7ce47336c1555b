let page_size = Vmem.Addr.page_size
let arena_bytes = 512 * 1024
let max_small = 2048

let size_classes =
  [| 16; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 1536; 2048 |]

let class_of size =
  let rec go i =
    if size_classes.(i) >= size then i
    else go (i + 1)
  in
  go 0

type page_meta =
  | Slab of {
      class_idx : int;
      chunks : int;
      used : Bytes.t; (* one byte per chunk: '\001' used *)
      mutable n_used : int;
    }
  | Span of { span_base : int64; span_len : int; pages : int }
      (** A large allocation, shared by all of its pages: a page's
          place in the span follows from its vpn. *)

type t = {
  mmap : int -> int64;
  meta : (int, page_meta) Hashtbl.t; (* vpn -> meta *)
  partial : int list array; (* per class: vpns of slab pages with space *)
  mutable free_pages : int list; (* carved but unused pages (stack) *)
  free_set : (int, unit) Hashtbl.t;
      (* pages currently holding no live data: carved-but-unused slab
         pages and pages of pooled spans *)
  spans : (int64, int) Hashtbl.t; (* live span base -> byte length *)
  span_pool : (int, int64 list) Hashtbl.t; (* page count -> reusable bases *)
  mutable live : int;
  mutable pages_owned : int;
}

let create ~mmap () =
  {
    mmap;
    meta = Hashtbl.create 1024;
    partial = Array.make (Array.length size_classes) [];
    free_pages = [];
    free_set = Hashtbl.create 1024;
    spans = Hashtbl.create 64;
    span_pool = Hashtbl.create 16;
    live = 0;
    pages_owned = 0;
  }

let release_page t vpn =
  t.free_pages <- vpn :: t.free_pages;
  Hashtbl.replace t.free_set vpn ()

let grow t =
  let base = t.mmap arena_bytes in
  let first = Vmem.Addr.vpn base in
  let n = arena_bytes / page_size in
  for i = n - 1 downto 0 do
    release_page t (first + i)
  done;
  t.pages_owned <- t.pages_owned + n

let take_page t =
  (match t.free_pages with [] -> grow t | _ :: _ -> ());
  match t.free_pages with
  | p :: rest ->
      t.free_pages <- rest;
      Hashtbl.remove t.free_set p;
      p
  | [] -> assert false

let alloc_small t size =
  let ci = class_of size in
  let csize = size_classes.(ci) in
  let vpn =
    match t.partial.(ci) with
    | vpn :: _ -> vpn
    | [] ->
        let vpn = take_page t in
        let chunks = page_size / csize in
        (* Slab bitmap for a freshly carved page: amortized over the
           page_size/csize chunks served from it, and bounded by the
           number of live slab pages — not a per-malloc allocation. *)
        Hashtbl.replace t.meta vpn
          (Slab
             {
               class_idx = ci;
               chunks;
               used = (Bytes.make chunks '\000' [@lint.allow "hot-alloc-path"]);
               n_used = 0;
             });
        t.partial.(ci) <- [ vpn ];
        vpn
  in
  match Hashtbl.find t.meta vpn with
  | Span _ -> assert false
  | Slab s ->
      let chunk = ref (-1) in
      (try
         for i = 0 to s.chunks - 1 do
           if Bytes.get s.used i = '\000' then begin
             chunk := i;
             raise Exit
           end
         done
       with Exit -> ());
      assert (!chunk >= 0);
      Bytes.set s.used !chunk '\001';
      s.n_used <- s.n_used + 1;
      if s.n_used = s.chunks then
        t.partial.(s.class_idx) <- List.filter (fun v -> v <> vpn) t.partial.(s.class_idx);
      t.live <- t.live + size_classes.(s.class_idx);
      Int64.add (Vmem.Addr.base vpn) (Int64.of_int (!chunk * size_classes.(s.class_idx)))

(* Large allocations need contiguous pages; take a dedicated mapping
   (or reuse a pooled one of the same page count) so contiguity is
   guaranteed regardless of slab churn. *)
let alloc_large t size =
  let pages = (size + page_size - 1) / page_size in
  let base =
    match Hashtbl.find_opt t.span_pool pages with
    | Some (b :: rest) ->
        Hashtbl.replace t.span_pool pages rest;
        let first = Vmem.Addr.vpn b in
        for i = 0 to pages - 1 do
          Hashtbl.remove t.free_set (first + i)
        done;
        b
    | Some [] | None ->
        t.pages_owned <- t.pages_owned + pages;
        t.mmap (pages * page_size)
  in
  Hashtbl.replace t.spans base size;
  let first = Vmem.Addr.vpn base in
  let span = Span { span_base = base; span_len = size; pages } in
  for i = 0 to pages - 1 do
    Hashtbl.replace t.meta (first + i) span
  done;
  t.live <- t.live + size;
  base

let malloc t size =
  if size <= 0 then invalid_arg "Ddc_alloc.malloc: size <= 0";
  if size <= max_small then alloc_small t size else alloc_large t size

let meta_of t addr =
  match Hashtbl.find_opt t.meta (Vmem.Addr.vpn addr) with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Ddc_alloc: 0x%Lx not owned" addr)

let usable_size t addr =
  match meta_of t addr with
  | Slab s -> size_classes.(s.class_idx)
  | Span sp -> sp.span_len

let free t ~write_link addr =
  match meta_of t addr with
  | Slab s ->
      let csize = size_classes.(s.class_idx) in
      let off = Vmem.Addr.offset addr in
      if off mod csize <> 0 then invalid_arg "Ddc_alloc.free: misaligned";
      let chunk = off / csize in
      if Bytes.get s.used chunk = '\000' then invalid_arg "Ddc_alloc.free: double free";
      Bytes.set s.used chunk '\000';
      s.n_used <- s.n_used - 1;
      t.live <- t.live - csize;
      (* Thread the freed chunk onto the (simulated) free list: one
         8-byte store, which dirties the page like real allocators. *)
      write_link addr;
      let vpn = Vmem.Addr.vpn addr in
      if s.n_used = s.chunks - 1 then t.partial.(s.class_idx) <- vpn :: t.partial.(s.class_idx)
      else if s.n_used = 0 then begin
        Hashtbl.remove t.meta vpn;
        t.partial.(s.class_idx) <- List.filter (fun v -> v <> vpn) t.partial.(s.class_idx);
        release_page t vpn
      end
  | Span sp ->
      if Int64.compare addr sp.span_base <> 0 then
        invalid_arg "Ddc_alloc.free: not the base of the span";
      let first = Vmem.Addr.vpn sp.span_base in
      for i = 0 to sp.pages - 1 do
        Hashtbl.remove t.meta (first + i);
        (* Pooled span pages hold no live data: guided paging may skip
           them entirely. *)
        Hashtbl.replace t.free_set (first + i) ()
      done;
      Hashtbl.remove t.spans sp.span_base;
      let pool = Option.value ~default:[] (Hashtbl.find_opt t.span_pool sp.pages) in
      Hashtbl.replace t.span_pool sp.pages (sp.span_base :: pool);
      t.live <- t.live - sp.span_len;
      write_link addr

let coalesce segs =
  let rec go = function
    | (o1, l1) :: (o2, l2) :: rest when o1 + l1 = o2 -> go ((o1, l1 + l2) :: rest)
    | s :: rest -> s :: go rest
    | [] -> []
  in
  go segs

let live_segments t page_base =
  if not (Vmem.Addr.is_page_aligned page_base) then
    invalid_arg "Ddc_alloc.live_segments: not page aligned";
  match Hashtbl.find_opt t.meta (Vmem.Addr.vpn page_base) with
  | None ->
      (* Carved-but-unused pages hold no live data; unknown pages are
         not ours to judge. *)
      if Hashtbl.mem t.free_set (Vmem.Addr.vpn page_base) then Some [] else None
  | Some (Span sp) ->
      let off = (Vmem.Addr.vpn page_base - Vmem.Addr.vpn sp.span_base) * page_size in
      let remaining = sp.span_len - off in
      if remaining >= page_size then None (* fully live *)
      else Some [ (0, remaining) ]
  | Some (Slab s) ->
      if s.n_used = s.chunks then None
      else begin
        let csize = size_classes.(s.class_idx) in
        let segs = ref [] in
        for i = s.chunks - 1 downto 0 do
          if Bytes.get s.used i = '\001' then segs := (i * csize, csize) :: !segs
        done;
        Some (coalesce !segs)
      end

let reclaim_guide t =
  { Guide.rg_name = "ddc-alloc-bitmap"; rg_live_segments = (fun b -> live_segments t b) }

let live_bytes t = t.live
let owned_pages t = t.pages_owned
