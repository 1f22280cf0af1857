(* Correctness checks: every one counts toward [attempted]; a failing
   one marks the whole run's numbers as failed. *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* A pinned value applies at the default seed and full size only; any
   other run checks that every pass agrees with the first. *)
let pinned ~name ~pin ~first got =
  match pin with
  | Some want -> check (name ^ " matches its pin") (String.equal want got)
  | None -> (
      match !first with
      | None -> first := Some got
      | Some f -> check (name ^ " repeats across passes") (String.equal f got))
