type t = {
  spi : int;
  mutable seq : int;
  window : Replay.t;
  mutable bytes : int;
  mutable packets : int;
}

let create ~spi =
  { spi; seq = 0; window = Replay.create (); bytes = 0; packets = 0 }

let spi t = t.spi

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let check_replay t seq = Replay.check t.window seq

let account t ~bytes =
  t.bytes <- t.bytes + bytes;
  t.packets <- t.packets + 1

let bytes_processed t = t.bytes
let packets_processed t = t.packets
