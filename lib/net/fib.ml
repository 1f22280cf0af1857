type source = Static | Connected | Igp | Bgp

type route = { next_hop : int; cost : int; source : source }

type t = route Radix.t

let create () = Radix.create ()

let local_delivery = -1

let add t p r = Radix.add t p r

let remove t p = Radix.remove t p

let lookup t a = Radix.lookup t a

let generation t = Radix.generation t

let next_hop t a = Option.map (fun (_, r) -> r.next_hop) (Radix.lookup t a)

let find t p = Radix.find t p

let size t = Radix.cardinal t

let clear_source t src =
  let victims =
    Radix.fold
      (fun p r acc -> if r.source = src then p :: acc else acc)
      t []
  in
  List.iter (fun p -> ignore (Radix.remove t p)) victims;
  List.length victims

let iter f t = Radix.iter f t

let to_list t = Radix.to_list t
