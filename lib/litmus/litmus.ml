(** Persistency litmus runner.  See the interface for semantics; the
    mechanics worth knowing:

    - {b The sweep.}  Exploration, event capture and the per-schedule
      crash points are the model checker's one DPOR crash sweep
      ({!Mirror_mcheck.Mcheck.dpor_crash_sweep}, as behind
      [Mcheck.check_dpor]); the litmus runner never stops it early, and
      collects one durable observation per crash point.

    - {b Crash replays.}  Each complete schedule is re-executed once per
      crash point with {!Mirror_mcheck.Mcheck.crash_replay}[ ~strict:true]
      — a replay that runs past the recorded picks is diverging and must
      fail loudly, not silently explore a different interleaving — and
      recovery runs on the cut state.

    - {b Determinism.}  The adversarial crash policy (only fenced
      write-backs survive) keeps every replay deterministic; probabilistic
      eviction would turn exact outcome sets into flaky ones. *)

module Sched = Mirror_schedsim.Sched
module Mcheck = Mirror_mcheck.Mcheck

type obs = int list

type program = {
  tasks : (unit -> unit) list;
  observe : unit -> obs;
  crash_recover : unit -> unit;
  observe_durable : unit -> obs;
}

type t = {
  name : string;
  descr : string;
  deep : bool;
  mk : unit -> program;
  allowed : obs list;
  forbidden : obs list;
  allowed_durable : obs list;
  forbidden_durable : obs list;
  expect_forbidden : bool;
}

let oset xs = List.sort_uniq compare xs
let inter a b = List.filter (fun x -> List.mem x b) a
let diff a b = List.filter (fun x -> not (List.mem x b)) a

let litmus name mk ?(descr = "") ?(deep = false) ~allowed ?(forbidden = [])
    ~allowed_durable ?(forbidden_durable = []) ?(expect_forbidden = false) ()
    : t =
  if
    (not expect_forbidden)
    && (inter forbidden allowed <> [] || inter forbidden_durable allowed_durable <> [])
  then
    invalid_arg
      (Printf.sprintf
         "Litmus.litmus %s: forbidden outcomes overlap the allowed set (only \
          a negative control may expect to reach one)"
         name);
  {
    name;
    descr;
    deep;
    mk;
    allowed = oset allowed;
    forbidden = oset forbidden;
    allowed_durable = oset allowed_durable;
    forbidden_durable = oset forbidden_durable;
    expect_forbidden;
  }

type result = {
  r_name : string;
  r_schedules : int;
  r_pruned : int;
  r_exhausted : bool;
  r_points : int;
  r_live : obs list;
  r_durable : obs list;
  r_forbidden_hits : obs list;
  r_ok : bool;
  r_detail : string;
}

let obs_to_string o = "(" ^ String.concat "," (List.map string_of_int o) ^ ")"

let set_to_string os =
  "{" ^ String.concat " " (List.map obs_to_string os) ^ "}"

(* Replay [picks] over a fresh instance, pull the plug just before persist
   event [crash_at], recover, observe. *)
let durable_at (t : t) ~picks ~crash_at : obs =
  let p = t.mk () in
  let (_ : bool) = Mcheck.crash_replay ~strict:true ~picks ~crash_at p.tasks in
  p.crash_recover ();
  p.observe_durable ()

let run ?(limit = 50_000) ?(max_steps = 2_000) (t : t) : result =
  let live = ref [] and durable = ref [] in
  let points = ref 0 in
  let rep, _ =
    Mcheck.dpor_crash_sweep ~limit ~max_steps
      ~points:(fun events -> Mcheck.crash_points events)
      ~try_at:(fun ~picks crash_at ->
        incr points;
        durable := durable_at t ~picks ~crash_at :: !durable;
        ([], ()))
      (fun () ->
        let p = t.mk () in
        (p.tasks, fun () -> live := p.observe () :: !live))
  in
  let live = oset !live and durable = oset !durable in
  let hits =
    oset (inter t.forbidden live @ inter t.forbidden_durable durable)
  in
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not rep.Sched.dpor_exhausted then
    add "interleaving space not exhausted (raise ~limit or shrink the test)";
  (match diff live t.allowed with
  | [] -> ()
  | xs -> add "unexpected live outcomes %s" (set_to_string xs));
  (match diff t.allowed live with
  | [] -> ()
  | xs -> add "missing live outcomes %s" (set_to_string xs));
  (match diff durable t.allowed_durable with
  | [] -> ()
  | xs -> add "unexpected durable outcomes %s" (set_to_string xs));
  (match diff t.allowed_durable durable with
  | [] -> ()
  | xs -> add "missing durable outcomes %s" (set_to_string xs));
  if t.expect_forbidden then begin
    if hits = [] then
      add "negative control reached no forbidden outcome"
  end
  else if hits <> [] then
    add "forbidden outcomes reached %s" (set_to_string hits);
  {
    r_name = t.name;
    r_schedules = rep.Sched.dpor_schedules;
    r_pruned = rep.Sched.dpor_pruned;
    r_exhausted = rep.Sched.dpor_exhausted;
    r_points = !points;
    r_live = live;
    r_durable = durable;
    r_forbidden_hits = hits;
    r_ok = !problems = [];
    r_detail = String.concat "; " (List.rev !problems);
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%-28s %4d schedules (%d pruned%s) %4d crash replays  live=%s durable=%s%s: %s"
    r.r_name r.r_schedules r.r_pruned
    (if r.r_exhausted then ", exhausted" else ", NOT EXHAUSTED")
    r.r_points
    (set_to_string r.r_live)
    (set_to_string r.r_durable)
    (if r.r_forbidden_hits = [] then ""
     else " forbidden-hit=" ^ set_to_string r.r_forbidden_hits)
    (if r.r_ok then "ok" else "FAIL [" ^ r.r_detail ^ "]")
