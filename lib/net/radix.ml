(* Path-compressed binary trie. Invariants:
   - every node's prefix strictly extends its parent's prefix;
   - the left (right) child's network has bit 0 (1) at the position just
     past the parent's mask length;
   - the root covers 0.0.0.0/0 and is never removed;
   - internal "glue" nodes may carry no value but always have two
     children (compaction splices out valueless one-child nodes). *)

type 'a node = {
  prefix : Prefix.t;
  mutable value : 'a option;
  mutable left : 'a node option;
  mutable right : 'a node option;
}

type 'a t = {
  mutable root : 'a node;
  mutable count : int;
  (* Monotonic mutation counter: bumped by every completed [add],
     successful [remove] and [clear]. Caches built over a snapshot of
     the trie compare generations to detect staleness in O(1). *)
  mutable gen : int;
}

let fresh_root () =
  { prefix = Prefix.default; value = None; left = None; right = None }

let create () = { root = fresh_root (); count = 0; gen = 0 }

let generation t = t.gen

let is_empty t = t.count = 0

let cardinal t = t.count

let leaf prefix v = { prefix; value = Some v; left = None; right = None }

let child node dir = if dir then node.right else node.left

let set_child node dir c =
  if dir then node.right <- c else node.left <- c

(* Longest prefix subsuming both [p] and [q]. *)
let common_prefix p q =
  let np = Ipv4.to_int (Prefix.network p)
  and nq = Ipv4.to_int (Prefix.network q) in
  let max_len = min (Prefix.length p) (Prefix.length q) in
  let rec first_diff i =
    if i >= max_len then max_len
    else if (np lxor nq) land (1 lsl (31 - i)) <> 0 then i
    else first_diff (i + 1)
  in
  Prefix.make (Prefix.network p) (first_diff 0)

(* [add] and [find] walk with top-level recursive functions taking
   every input as an argument, so neither allocates a closure per
   call. *)
let rec add_go t p v node =
  if Prefix.equal node.prefix p then begin
    match node.value with
    | None ->
      t.count <- t.count + 1;
      node.value <- Some v
    (* Re-adding the bound value keeps its block: no fresh [Some]. *)
    | Some old -> if old != v then node.value <- Some v
  end else
    (* node.prefix strictly subsumes p here. *)
    let dir = Prefix.bit p (Prefix.length node.prefix) in
    match child node dir with
    | None ->
      set_child node dir (Some (leaf p v));
      t.count <- t.count + 1
    | Some c ->
      if Prefix.subsumes c.prefix p then add_go t p v c
      else if Prefix.subsumes p c.prefix then begin
        let mid = leaf p v in
        set_child mid (Prefix.bit c.prefix (Prefix.length p)) (Some c);
        set_child node dir (Some mid);
        t.count <- t.count + 1
      end else begin
        let g = common_prefix p c.prefix in
        let glue =
          { prefix = g; value = None; left = None; right = None }
        in
        set_child glue (Prefix.bit p (Prefix.length g)) (Some (leaf p v));
        set_child glue (Prefix.bit c.prefix (Prefix.length g)) (Some c);
        set_child node dir (Some glue);
        t.count <- t.count + 1
      end

let add t p v =
  add_go t p v t.root;
  t.gen <- t.gen + 1

let rec find_go p node =
  if Prefix.equal node.prefix p then node.value
  else if Prefix.length node.prefix >= 32 then None
  else
    let dir = Prefix.bit p (Prefix.length node.prefix) in
    match child node dir with
    | Some c when Prefix.subsumes c.prefix p -> find_go p c
    | Some _ | None -> None

let find t p =
  if Prefix.subsumes t.root.prefix p then find_go p t.root else None

(* Splice out a node that no longer justifies its existence. *)
let compact node =
  match node.value, node.left, node.right with
  | None, None, None -> None
  | None, Some only, None | None, None, Some only -> Some only
  | (Some _ | None), _, _ -> Some node

let remove t p =
  let removed = ref false in
  let rec go node =
    if Prefix.equal node.prefix p then begin
      if node.value <> None then begin
        removed := true;
        t.count <- t.count - 1
      end;
      node.value <- None;
      compact node
    end else if Prefix.length node.prefix >= 32 then Some node
    else begin
      let dir = Prefix.bit p (Prefix.length node.prefix) in
      (match child node dir with
       | Some c when Prefix.subsumes c.prefix p ->
         set_child node dir (go c)
       | Some _ | None -> ());
      if !removed then compact node else Some node
    end
  in
  if not (Prefix.subsumes t.root.prefix p) then false
  else begin
    (match go t.root with
     | Some r when Prefix.equal r.prefix Prefix.default -> t.root <- r
     | Some r ->
       (* The /0 root was compacted away; re-root above the survivor. *)
       let root = fresh_root () in
       set_child root (Prefix.bit r.prefix 0) (Some r);
       t.root <- root
     | None -> t.root <- fresh_root ());
    if !removed then t.gen <- t.gen + 1;
    !removed
  end

let m_lookup_depth =
  Mvpn_telemetry.Registry.histogram ~lo:1.0 "fib.lookup_depth"

(* The best-match walk remembers the deepest node that carries a value
   and allocates nothing along the way — {!lookup_value} returns that
   node's own [value] field. The depth-counting walk is a separate
   function selected by one flag check at entry, so the disabled path
   (the per-packet LPM that E0 races) is exactly the uninstrumented
   loop. *)
let addr_bit a i = Ipv4.to_int a land (1 lsl (31 - i)) <> 0

let rec best_go a node best =
  let best = match node.value with Some _ -> node | None -> best in
  if Prefix.length node.prefix >= 32 then best
  else
    match child node (addr_bit a (Prefix.length node.prefix)) with
    | Some c when Prefix.mem a c.prefix -> best_go a c best
    | Some _ | None -> best

let rec best_go_depth a node best depth =
  let best = match node.value with Some _ -> node | None -> best in
  if Prefix.length node.prefix >= 32 then begin
    Mvpn_telemetry.Histogram.observe_int m_lookup_depth depth;
    best
  end
  else
    match child node (addr_bit a (Prefix.length node.prefix)) with
    | Some c when Prefix.mem a c.prefix -> best_go_depth a c best (depth + 1)
    | Some _ | None ->
      Mvpn_telemetry.Histogram.observe_int m_lookup_depth depth;
      best

(* The root doubles as the "nothing yet" seed: its value is matched,
   not assumed, so a valueless root contributes [None] naturally. *)
let best_node t a =
  if not !Mvpn_telemetry.Control.enabled then best_go a t.root t.root
  else best_go_depth a t.root t.root 1

let lookup t a =
  let b = best_node t a in
  match b.value with Some v -> Some (b.prefix, v) | None -> None

let lookup_value t a = (best_node t a).value

let rec fold_go f node acc =
  let acc =
    match node.value with
    | Some v -> f node.prefix v acc
    | None -> acc
  in
  let acc = match node.left with Some c -> fold_go f c acc | None -> acc in
  match node.right with Some c -> fold_go f c acc | None -> acc

let fold f t init = fold_go f t.root init

let rec iter_go f node =
  (match node.value with Some v -> f node.prefix v | None -> ());
  (match node.left with Some c -> iter_go f c | None -> ());
  match node.right with Some c -> iter_go f c | None -> ()

let iter f t = iter_go f t.root

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let of_list bindings =
  let t = create () in
  List.iter (fun (p, v) -> add t p v) bindings;
  t

let clear t =
  t.root <- fresh_root ();
  t.count <- 0;
  t.gen <- t.gen + 1
