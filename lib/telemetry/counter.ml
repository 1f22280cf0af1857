(* The handle is shared across domains; the count lives in domain-local
   storage, so concurrent domains bump private cells and never lose
   increments to a read-modify-write race. Each domain therefore holds a
   partial count: [value] reads the calling domain's partial, and a
   harness combines partials with [Registry.snapshot] (taken inside the
   domain) + [Registry.absorb] (counters add).

   [Domain.DLS.get] per bump is measurable in instrumented hot loops
   (LFIB step, qdisc, per-hop counters), so the handle memoizes the
   last resolved (domain id, cell) pair. The pair is one immutable
   block behind a single mutable field: a racing reader sees either
   the old or the new pair whole, and uses it only when the stored
   domain id is its own — a hit always yields the caller's private
   cell, so the DLS partial-count guarantee is untouched. *)

type cache = { did : int; cell : int ref }

type t = {
  key : int ref Domain.DLS.key;
  mutable last : cache;
}

(* No real domain has id -1, so the first access always misses. *)
let empty_cache = { did = -1; cell = ref 0 }

let make () =
  { key = Domain.DLS.new_key (fun () -> ref 0); last = empty_cache }

let cell t =
  let did = (Domain.self () :> int) in
  let l = t.last in
  if l.did = did then l.cell
  else begin
    let c = Domain.DLS.get t.key in
    t.last <- { did; cell = c };
    c
  end

let incr t =
  if !Control.enabled then begin
    let c = cell t in
    c := !c + 1
  end

let add t n =
  if !Control.enabled then begin
    let c = cell t in
    c := !c + n
  end

let set t n = if !Control.enabled then cell t := n

let value t = !(cell t)

let reset t = cell t := 0
