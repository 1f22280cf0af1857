type ftn_entry = { push : int; next_hop : int }

type node_state = {
  allocator : Label.Allocator.t;
  lfib : Lfib.t;
  ftn : (Fec.t, ftn_entry) Hashtbl.t;
  (* Monotonic FTN mutation counter: bumped by an install_ftn that
     changes the binding and by a successful remove_ftn, so an LDP
     refresh that leaves a binding as it was does not move it. FEC → FTN
     caches compare it to detect staleness. *)
  mutable ftn_gen : int;
}

type t = node_state array

let create ~nodes =
  Array.init nodes (fun _ ->
      { allocator = Label.Allocator.create (); lfib = Lfib.create ();
        ftn = Hashtbl.create 16; ftn_gen = 0 })

let get (t : t) node =
  if node < 0 || node >= Array.length t then
    invalid_arg (Printf.sprintf "Plane: unknown node %d" node);
  t.(node)

let allocator t node = (get t node).allocator

let lfib t node = (get t node).lfib

let install_ftn t node fec ~push ~next_hop =
  let s = get t node in
  match Hashtbl.find s.ftn fec with
  | e when e.push = push && e.next_hop = next_hop -> ()
  | _ | (exception Not_found) ->
    Hashtbl.replace s.ftn fec { push; next_hop };
    s.ftn_gen <- s.ftn_gen + 1

let remove_ftn t node fec =
  let s = get t node in
  if Hashtbl.mem s.ftn fec then begin
    Hashtbl.remove s.ftn fec;
    s.ftn_gen <- s.ftn_gen + 1;
    true
  end else false

let find_ftn t node fec = Hashtbl.find_opt (get t node).ftn fec

let clear_ftn t node =
  let s = get t node in
  if Hashtbl.length s.ftn > 0 then begin
    Hashtbl.reset s.ftn;
    s.ftn_gen <- s.ftn_gen + 1
  end

let ftn_generation t node = (get t node).ftn_gen

let total_lfib_entries t =
  Array.fold_left (fun acc s -> acc + Lfib.size s.lfib) 0 t

let total_labels_allocated t =
  Array.fold_left (fun acc s -> acc + Label.Allocator.allocated s.allocator) 0 t
