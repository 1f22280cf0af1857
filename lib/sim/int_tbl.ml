let hash h =
  let h = (h lxor (h lsr 31)) * 0x3c79ac492ba7b653 in
  let h = (h lxor (h lsr 29)) * 0x1c69b3f74ac4ae35 in
  (h lxor (h lsr 32)) land max_int

include Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = hash
  end)
