(* The handle is shared across domains; the count lives in domain-local
   storage, so concurrent domains bump private cells and never lose
   increments to a read-modify-write race. Each domain therefore holds a
   partial count: [value] reads the calling domain's partial, and a
   harness combines partials with [Registry.snapshot] (taken inside the
   domain) + [Registry.absorb] (counters add).

   [Domain.DLS.get] per bump is measurable in instrumented hot loops
   (LFIB step, qdisc, per-hop counters), so the handle memoizes the
   last resolved cell. A cell is one record carrying its owner's
   domain id beside the count, built by the DLS initializer in the
   domain that owns it. The memo is a single mutable field holding a
   cell: a racing reader sees one cell whole, and uses it only when
   the stored domain id is its own — a hit always yields the caller's
   private cell, so the DLS partial-count guarantee is untouched. A
   miss re-points the memo at the caller's existing cell, so a handle
   that two domains take turns with allocates nothing. *)

type cell = { did : int; mutable n : int }

type t = {
  key : cell Domain.DLS.key;
  mutable last : cell;
}

(* No real domain has id -1, so the first access always misses. *)
let empty_cell = { did = -1; n = 0 }

let make () =
  { key =
      Domain.DLS.new_key (fun () ->
          { did = (Domain.self () :> int); n = 0 });
    last = empty_cell }

let cell t =
  let did = (Domain.self () :> int) in
  let l = t.last in
  if l.did = did then l
  else begin
    let c = Domain.DLS.get t.key in
    t.last <- c;
    c
  end

let incr t =
  if !Control.enabled then begin
    let c = cell t in
    c.n <- c.n + 1
  end

let add t n =
  if !Control.enabled then begin
    let c = cell t in
    c.n <- c.n + n
  end

let set t n = if !Control.enabled then (cell t).n <- n

let value t = (cell t).n

let reset t = (cell t).n <- 0
