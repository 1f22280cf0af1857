module Rng = Mvpn_sim.Rng

type dist = Pareto | Uniform

let dist_name = function Pareto -> "pareto" | Uniform -> "uniform"

type t = {
  seed : int;
  pe_count : int;
  dist : dist;
  customers : Service.customer array;
}

let tiers = [| Service.Gold; Service.Silver; Service.Bronze |]

(* Customer [id] is a pure function of (seed, id): one indexed
   substream per customer, parent never advanced — iteration order
   cannot perturb any draw. *)
let generate_customer ?(dist = Pareto) ?(pe_count = 12) ?(max_sites = 512)
    ~seed ~id () =
  let rng = Rng.split (Rng.create seed) id in
  let topology =
    let x = Rng.uniform rng in
    if x < 0.60 then Service.Any_to_any
    else if x < 0.90 then Service.Hub_spoke
    else
      (* Extranets are small partnerships: the group id is an id
         neighborhood, so expected partners per group stay O(1) no
         matter how large the portfolio grows — C1 linearity is a
         property of the service mix, not just the protocol. *)
      Service.Extranet (id / 16)
  in
  let tier = tiers.(Rng.int rng 3) in
  let n =
    match dist with
    | Pareto ->
      (* Mean ~11 sites after the cap: most customers are tiny, the
         tail is fat. *)
      max 3 (min max_sites (int_of_float (Rng.pareto rng ~shape:1.4 ~scale:4.0)))
    | Uniform -> Rng.int_in rng 2 8
  in
  let sites =
    List.init n (fun sid ->
        { Service.sid; pe = Rng.int rng pe_count;
          role = Service.default_role topology ~sid })
  in
  { Service.id; name = Printf.sprintf "cust-%04d" id; topology; tier; sites }

let generate ?(dist = Pareto) ?(pe_count = 12) ?(max_sites = 512) ~seed
    ~customers () =
  if customers < 1 then
    invalid_arg "Portfolio.generate: need at least one customer";
  if pe_count < 1 || pe_count > 64 then
    invalid_arg "Portfolio.generate: pe_count must be in [1, 64]";
  { seed; pe_count; dist;
    customers =
      Array.init customers (fun i ->
          generate_customer ~dist ~pe_count ~max_sites ~seed ~id:(i + 1) ()) }

let of_customers ?(dist = Pareto) ~pe_count ~seed customers =
  List.iteri
    (fun i (c : Service.customer) ->
       if c.Service.id <> i + 1 then
         invalid_arg
           (Printf.sprintf
              "Portfolio.of_customers: customer at index %d has id %d" i
              c.Service.id))
    customers;
  { seed; pe_count; dist; customers = Array.of_list customers }

let site_count t =
  Array.fold_left
    (fun acc (c : Service.customer) -> acc + List.length c.Service.sites)
    0 t.customers

let overlay_circuits t =
  Array.fold_left
    (fun acc (c : Service.customer) ->
       let s = List.length c.Service.sites in
       acc + (s * (s - 1) / 2))
    0 t.customers

type op =
  | Add_site of { customer : int; sid : int; pe : int }
  | Remove_site of { customer : int; sid : int }
  | Change_tier of { customer : int; tier : Service.tier }

(* Replay [op] into [customers] in place. *)
let patch customers op =
  let update id f =
    if id < 1 || id > Array.length customers then
      invalid_arg
        (Printf.sprintf "Portfolio.apply_all: unknown customer %d" id);
    customers.(id - 1) <- f customers.(id - 1)
  in
  (match op with
   | Change_tier { customer; tier } ->
     update customer (fun c -> { c with Service.tier })
   | Add_site { customer; sid; pe } ->
     update customer (fun c ->
         if List.exists (fun s -> s.Service.sid = sid) c.Service.sites then
           invalid_arg
             (Printf.sprintf "Portfolio.apply_all: duplicate site %d.%d"
                customer sid);
         let role = Service.default_role c.Service.topology ~sid in
         { c with
           Service.sites = c.Service.sites @ [{ Service.sid; pe; role }] })
   | Remove_site { customer; sid } ->
     update customer (fun c ->
         if not (List.exists (fun s -> s.Service.sid = sid) c.Service.sites)
         then
           invalid_arg
             (Printf.sprintf "Portfolio.apply_all: no site %d.%d" customer sid);
         { c with
           Service.sites =
             List.filter (fun s -> s.Service.sid <> sid) c.Service.sites }))

let apply_all t ops =
  let customers = Array.copy t.customers in
  List.iter (patch customers) ops;
  { t with customers }

(* Op [k] draws only from substream [k]; the evolving portfolio it
   validates against is itself a pure replay — so the whole sequence
   is a function of (portfolio, seed, ops), nothing else. *)
let churn t ~seed ~ops =
  let root = Rng.create seed in
  let customers = Array.copy t.customers in
  List.init ops (fun k ->
      let rng = Rng.split root (k + 1) in
      let c = customers.(Rng.int rng (Array.length customers)) in
      let n = List.length c.Service.sites in
      let x = Rng.uniform rng in
      let op =
        if x < 0.25 then
          Change_tier { customer = c.Service.id; tier = tiers.(Rng.int rng 3) }
        else if x < 0.55 && n > 1 then
          let victim = List.nth c.Service.sites (Rng.int rng n) in
          Remove_site { customer = c.Service.id; sid = victim.Service.sid }
        else
          let sid =
            1
            + List.fold_left
                (fun m s -> max m s.Service.sid)
                (-1) c.Service.sites
          in
          Add_site { customer = c.Service.id; sid; pe = Rng.int rng t.pe_count }
      in
      patch customers op;
      op)
