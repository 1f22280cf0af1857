(* Fingerprints pinned at each workload's default seed (full size).
   backbone_k2 must reproduce backbone_steady's. soak_chaos's executed
   and scheduled counts include the auditor's ticks; its 19 drops are
   the storm's. provision_10k pins the digest of the oracle compile's
   canonical fingerprint. *)

let default_seed = 11

let backbone_steady =
  "delivered=99379 dropped=0 events=1040566 scheduled=1040567 \
   voice:11369/11369,transactional:31252/31252,bulk:80655/56758 slo=true/3"

let soak_chaos =
  "delivered=141286 dropped=19 events=1503496 scheduled=1503498 \
   voice:20796/20734,transactional:56598/56492,bulk:89141/64060 slo=true/15"

let provision_10k = "d13664197552157a7313d4c2da0e17e5"
