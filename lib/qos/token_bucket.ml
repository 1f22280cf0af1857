let m_conform = Mvpn_telemetry.Registry.counter "token_bucket.conform"
let m_exceed = Mvpn_telemetry.Registry.counter "token_bucket.exceed"

type t = {
  rate_bytes_per_s : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate_bps ~burst_bytes =
  if rate_bps <= 0.0 then invalid_arg "Token_bucket.create: rate must be positive";
  if burst_bytes <= 0.0 then
    invalid_arg "Token_bucket.create: burst must be positive";
  { rate_bytes_per_s = rate_bps /. 8.0; burst = burst_bytes;
    tokens = burst_bytes; last = 0.0 }

let refill t ~now =
  if now > t.last then begin
    t.tokens <-
      Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate_bytes_per_s));
    t.last <- now
  end

let take t ~now ~bytes =
  refill t ~now;
  let need = float_of_int bytes in
  if t.tokens >= need then begin
    t.tokens <- t.tokens -. need;
    Mvpn_telemetry.Counter.incr m_conform;
    true
  end else begin
    Mvpn_telemetry.Counter.incr m_exceed;
    false
  end

let available t ~now =
  refill t ~now;
  t.tokens

let drain t ~now ~bytes =
  refill t ~now;
  t.tokens <- t.tokens -. float_of_int bytes
