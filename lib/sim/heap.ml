(* Slots are a sum type so vacated and never-used positions hold [Empty]
   rather than a stale entry: a popped event's closure and payload must
   become unreachable immediately, or a long-running simulation retains
   every event it ever processed for the life of the heap. *)
type 'a slot = Empty | Slot of { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let size h = h.size

let less a b =
  match a, b with
  | Slot a, Slot b -> a.key < b.key || (a.key = b.key && a.seq < b.seq)
  | Empty, _ | _, Empty -> assert false

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap Empty in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h key value =
  grow h;
  h.data.(h.size) <- Slot { key; seq = h.next_seq; value };
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    match h.data.(0) with
    | Empty -> assert false
    | Slot top ->
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        sift_down h 0
      end;
      h.data.(h.size) <- Empty;
      Some (top.key, top.value)
  end

let peek h =
  if h.size = 0 then None
  else
    match h.data.(0) with
    | Empty -> assert false
    | Slot top -> Some (top.key, top.value)

(* Allocation-free pop for the engine's run loop: the option/tuple of
   [peek]+[pop] is replaced by a sentinel compare ([default], returned
   physically when nothing is due) and an out-parameter for the key
   (a floatarray cell, so the key crosses the call unboxed). *)
let pop_due h ~bound ~strict ~default ~key_out =
  if h.size = 0 then default
  else
    match h.data.(0) with
    | Empty -> assert false
    | Slot top ->
      if (if strict then top.key < bound else top.key <= bound) then begin
        h.size <- h.size - 1;
        if h.size > 0 then begin
          h.data.(0) <- h.data.(h.size);
          sift_down h 0
        end;
        h.data.(h.size) <- Empty;
        Float.Array.set key_out 0 top.key;
        top.value
      end
      else default

let clear h =
  h.data <- [||];
  h.size <- 0;
  h.next_seq <- 0
