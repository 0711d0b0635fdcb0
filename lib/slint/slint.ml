(** Static analysis of the Mirror persistency discipline — the engine of
    [bin/mlint.exe].

    Where {!Mirror_psan.Psan} checks the discipline over the events of one
    executed schedule and {!Mirror_mcheck.Mcheck} over the crash points of
    recorded schedules, this module checks it over {e all} code paths at
    once, by walking compiler-libs parsetrees of the sources themselves
    ([Parse] + a hand-rolled path-sensitive walker, with [Ast_iterator]
    for the order-insensitive sweeps).  The price of running at compile
    time is precision: the rules are purely syntactic, plus a lightweight
    resolution of [P : Mirror_prim.Prim.S] functor parameters, so every
    rule is an approximation with documented blind spots (docs/TESTING.md,
    "The mlint tier").

    The rule set mirrors psan's dynamic classes:

    - {b L1} substrate encapsulation — no direct [Slot.] access and no
      data-plane [Region.] access ([fence], placement, line bookkeeping)
      outside the substrate-owning libraries (lib/nvm, lib/core,
      lib/nvmheap, lib/psan, lib/mcheck).  Region {e lifecycle} calls
      ([create]/[crash]/[begin_recovery]/[mark_recovered]/[quiesce]/
      epoch observers) stay legal everywhere: the harness and the
      examples drive crashes by design.  Outside lib/nvm, an access is
      billed only through the [Stats.bill_*] functions: a write to an
      access counter of [Stats] (such as [nvm_read]) or a call to a
      per-event [Latency] charge is flagged too.
    - {b L2} phase discipline — [P.load_t] is traversal-only: a traversal
      load appearing after the first [P.store]/[P.cas]/[P.fetch_add] of
      the same function body is flagged.
    - {b L3} decision-path persist — in a function that observes the
      structure through the traversal phase (a [P.load_t] of its own or,
      one level deep, a callee that performs one), a constant decision
      ([true]/[false]/[None]) returned without a [P.load] or [P.persist]
      on its path is flagged: the NVTraverse failed-remove/failed-insert
      bug class, where a completed negative answer depends on another
      thread's unpersisted unlink.
    - {b L4} ignored CAS results — [ignore (P.cas ...)] and
      [let _ = P.cas ...] discard the linearization verdict.
    - {b L5} replay determinism — [Domain.DLS], [Random.self_init] and
      wall-clock reads are banned in lib/dstruct, lib/prim and
      lib/handmade, where every observable choice must derive from the
      scheduler seed (the skiplist tower-RNG flake class).
    - {b L6} recovery honesty — a swallowed [Recovery_corrupt] (caught
      without re-raising) anywhere, or a catch-all [with _ ->] handler
      inside a function whose name contains "recover".
    - {b L7} unchecked casts — an [external ... = "%identity"] or an
      [Obj.magic] under lib/, bin/ or examples/.  Such a cast bypasses
      the type system (the in-record atomic fields of [Patomic] and
      [Slot] are the sanctioned uses), so every one must carry a
      reasoned [mlint.allow L7] pragma.
    - {b W2} (warning tier) line placement — a record literal allocating
      two or more fields with [P.make] where [P.make_near] would
      co-locate the siblings on one cache line.

    Suppression: a file-level [[@@@mlint.allow L5 "reason"]] floating
    attribute disables a rule for the whole file ([substrate] is accepted
    as an alias for [L1]); a scoped [[@mlint.allow L3 "reason"]] on an
    expression or a [let] binding suppresses findings inside it.
    Suppressed findings stay in the report with their reason so the CLI
    can count them per rule. *)

type rule = L1 | L2 | L3 | L4 | L5 | L6 | L7 | W2

let all_rules = [ L1; L2; L3; L4; L5; L6; L7; W2 ]

let rule_id = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | W2 -> "W2"

(* [substrate] is the self-documenting spelling for opting a handmade
   baseline out of L1 at file level. *)
let rule_of_id = function
  | "L1" | "substrate" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | "L6" -> Some L6
  | "L7" -> Some L7
  | "W2" -> Some W2
  | _ -> None

type tier = Error | Warning

let tier = function W2 -> Warning | _ -> Error
let tier_name = function Error -> "error" | Warning -> "warning"

let rule_doc = function
  | L1 ->
      "substrate encapsulation: no direct Slot./data-plane Region. access \
       outside lib/{nvm,core,nvmheap,psan,mcheck}; no access-counter write \
       or Latency charge outside lib/nvm"
  | L2 ->
      "phase discipline: P.load_t is traversal-only -- no traversal load \
       after the function's first write/CAS"
  | L3 ->
      "decision-path persist: a constant decision reached through the \
       traversal phase must P.load/P.persist its deciding field on every \
       path (the NVTraverse failed-remove/insert hole)"
  | L4 ->
      "ignored CAS result: ignore (P.cas ...) / let _ = P.cas ... discards \
       the linearization verdict"
  | L5 ->
      "replay determinism: Domain.DLS, Random.self_init and wall-clock \
       reads are banned in lib/{dstruct,prim,handmade}"
  | L6 ->
      "recovery honesty: no swallowed Recovery_corrupt, no catch-all \
       exception handler in recovery code"
  | L7 ->
      "unchecked casts: every external ... = \"%identity\" and Obj.magic \
       under lib/, bin/ and examples/ carries a reasoned mlint.allow L7"
  | W2 ->
      "line placement: sibling record fields allocated with P.make where \
       P.make_near would co-locate them on one cache line"

(* One line per rule, tab-separated; [bin/mlint.exe --list-rules] prints
   exactly these lines and test/t_slint.ml pins them against both the CLI
   output and the docs table, so the three vocabularies cannot drift. *)
let list_rules () =
  List.map
    (fun r ->
      Printf.sprintf "%s\t%s\t%s" (rule_id r)
        (tier_name (tier r))
        (rule_doc r))
    all_rules

type finding = {
  f_rule : rule;
  f_file : string;  (** repo-relative path *)
  f_line : int;
  f_col : int;
  f_expr : string;  (** the offending expression, one line, truncated *)
  f_msg : string;
  f_suppressed : string option;
      (** [Some reason] when an [mlint.allow] pragma covers the site *)
}

(* -- directory policy ------------------------------------------------------ *)

let substrate_owners =
  [ "lib/nvm"; "lib/core"; "lib/nvmheap"; "lib/psan"; "lib/mcheck" ]

let deterministic_dirs = [ "lib/dstruct"; "lib/prim"; "lib/handmade" ]
let cast_dirs = [ "lib"; "bin"; "examples" ]

let under dir rel =
  let n = String.length dir in
  String.length rel > n
  && String.sub rel 0 n = dir
  && (rel.[n] = '/' || rel.[n] = Filename.dir_sep.[0])

let owns_substrate rel = List.exists (fun d -> under d rel) substrate_owners

(* Outside lib/nvm an access is billed only through [Stats.bill_*], which
   pairs its counter with its latency: no hand-written bump of one of
   these counters, no call of the [Latency] charge of the same name (or
   of [Latency.remote]). *)
let bills_by_hand rel = under "lib/nvm" rel

let access_counters =
  [
    "dram_read"; "dram_write"; "dram_cas"; "nvm_read"; "nvm_write"; "nvm_cas";
    "nvm_remote"; "flush"; "fence";
  ]

let hand_billed =
  "access billed by hand outside lib/nvm: go through Stats.bill_*, which \
   pairs the counter with its latency"

let deterministic rel = List.exists (fun d -> under d rel) deterministic_dirs
let cast_checked rel = List.exists (fun d -> under d rel) cast_dirs

(* Region functions that touch the persistence data plane: writing back,
   fencing, line placement and line bookkeeping.  Everything else on
   Region (create, crash, recovery lifecycle, epoch observers) is the
   simulator's control plane, legal from the harness and examples. *)
let region_data_plane =
  [
    "fence"; "place"; "place_near"; "line_add_member"; "line_persist_members";
    "line_in_flight"; "mark_line_flushed"; "record_deferred"; "announce";
    "advance_to"; "evicting"; "maybe_evict";
    "register_slot"; "register_volatile";
  ]

(* -- parsetree helpers ------------------------------------------------------ *)

open Parsetree

let lid_parts (l : Longident.t) = try Longident.flatten l with _ -> []

(* Does [parts] end with [suffix]? *)
let ends_with ~suffix parts =
  let np = List.length parts and ns = List.length suffix in
  np >= ns
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (np - ns) parts = suffix

let const_string e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Parse one [@mlint.allow <rule> "reason"] / [@@@mlint.allow ...]
   payload.  Accepts an uppercase rule id (parsed as a constructor, with
   the reason as its "argument") or the lowercase [substrate] alias
   (parsed as an application).  Unknown rule names are ignored: a typo'd
   pragma suppresses nothing, so the underlying finding still surfaces. *)
let allow_of_attr (a : attribute) : (rule * string) option =
  if a.attr_name.txt <> "mlint.allow" then None
  else
    match a.attr_payload with
    | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
        let named n reason =
          match rule_of_id n with Some r -> Some (r, reason) | None -> None
        in
        let rec go e =
          match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } -> named n ""
          | Pexp_construct ({ txt = Longident.Lident n; _ }, None) -> named n ""
          | Pexp_construct ({ txt = Longident.Lident n; _ }, Some arg) ->
              named n (Option.value (const_string arg) ~default:"")
          | Pexp_apply (h, (_, arg) :: _) -> (
              match go h with
              | Some (r, _) ->
                  Some (r, Option.value (const_string arg) ~default:"")
              | None -> None)
          | _ -> None
        in
        go e
    | _ -> None

let allows_of attrs = List.filter_map allow_of_attr attrs

(* Render the offending expression on one line, truncated; Pprintast can
   fail on exotic nodes, in which case the location still identifies the
   site. *)
let snip e =
  let s = try Pprintast.string_of_expression e with _ -> "<expression>" in
  let b = Buffer.create (String.length s) in
  let prev = ref ' ' in
  String.iter
    (fun c ->
      let c = if c = '\n' || c = '\t' then ' ' else c in
      if not (c = ' ' && !prev = ' ') then Buffer.add_char b c;
      prev := c)
    s;
  let s = Buffer.contents b in
  if String.length s > 64 then String.sub s 0 61 ^ "..." else s

(* Generic containment test via Ast_iterator (covers every constructor,
   nested functions included). *)
let expr_exists pred (e : expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if not !found then
            if pred e then found := true
            else Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let rec pat_exists pred (p : pattern) =
  pred p
  ||
  match p.ppat_desc with
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_lazy q | Ppat_open (_, q)
    ->
      pat_exists pred q
  | Ppat_or (a, b) -> pat_exists pred a || pat_exists pred b
  | Ppat_tuple ps | Ppat_array ps -> List.exists (pat_exists pred) ps
  | Ppat_construct (_, Some (_, q)) | Ppat_variant (_, Some q) ->
      pat_exists pred q
  | Ppat_record (fs, _) -> List.exists (fun (_, q) -> pat_exists pred q) fs
  | _ -> false

(* -- analysis context ------------------------------------------------------- *)

type summary = { s_load_t : bool; s_persist : bool }

type ctx = {
  rel : string;
  prim : (string, unit) Hashtbl.t;
      (* module names bound as [P : Mirror_prim.Prim.S] *)
  summaries : (string, summary) Hashtbl.t;
      (* one-level callee summaries, keyed by simple binding name *)
  mutable file_allow : (rule * string) list;
  mutable out : finding list;
}

let emit ctx ~allow rule (loc : Location.t) expr_str msg =
  let reason =
    match List.assoc_opt rule allow with
    | Some r -> Some r
    | None -> List.assoc_opt rule ctx.file_allow
  in
  let p = loc.Location.loc_start in
  ctx.out <-
    {
      f_rule = rule;
      f_file = ctx.rel;
      f_line = p.Lexing.pos_lnum;
      f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      f_expr = expr_str;
      f_msg = msg;
      f_suppressed = reason;
    }
    :: ctx.out

(* [P.f] where [P] is a resolved Prim.S functor parameter. *)
let prim_field ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match lid_parts txt with
      | [ m; f ] when Hashtbl.mem ctx.prim m -> Some f
      | _ -> None)
  | _ -> None

let prim_app ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (head, _) -> prim_field ctx head
  | _ -> None

let rec unparen e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> unparen e
  | _ -> e

(* -- pass A: resolve Prim.S functor parameters ------------------------------ *)

let prim_sig_lid lid =
  let parts = lid_parts lid in
  ends_with ~suffix:[ "Prim"; "S" ] parts

let collect_prim_params (str : structure) tbl =
  let it =
    {
      Ast_iterator.default_iterator with
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_functor
              ( Named ({ txt = Some n; _ }, { pmty_desc = Pmty_ident lid; _ }),
                _ )
            when prim_sig_lid lid.txt ->
              Hashtbl.replace tbl n ()
          | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_constraint
              ( { ppat_desc = Ppat_unpack { txt = Some n; _ }; _ },
                { ptyp_desc = Ptyp_package (lid, _); _ } )
            when prim_sig_lid lid.txt ->
              Hashtbl.replace tbl n ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.structure it str

(* -- pass B: one-level callee summaries ------------------------------------- *)

let collect_summaries ctx (str : structure) =
  let note name expr =
    let s_load_t = expr_exists (fun e -> prim_app ctx e = Some "load_t") expr in
    let s_persist =
      expr_exists
        (fun e ->
          match prim_app ctx e with
          | Some "persist" | Some "load" -> true
          | _ -> false)
        expr
    in
    if s_load_t || s_persist then
      let merged =
        match Hashtbl.find_opt ctx.summaries name with
        | Some old ->
            {
              s_load_t = old.s_load_t || s_load_t;
              s_persist = old.s_persist || s_persist;
            }
        | None -> { s_load_t; s_persist }
      in
      Hashtbl.replace ctx.summaries name merged
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> note txt vb.pvb_expr
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it str

(* -- the path-sensitive walk ------------------------------------------------ *)

(* Per-path state: [tail] — the expression's value is the function's
   result; [p] — a [P.persist]/[P.load] (or a summarized persisting
   callee) already ran on this path; [w] — a write/CAS already ran in
   this function body. *)
type st = { tail : bool; p : bool; w : bool }

type eff = { e_p : bool; e_w : bool }

let rec check_ident ctx ~allow lid (loc : Location.t) =
  let parts = lid_parts lid in
  let n = List.length parts in
  (* L1: [....Slot.v] or data-plane [....Region.v] outside the owners *)
  (if (not (owns_substrate ctx.rel)) && n >= 2 then
     let m = List.nth parts (n - 2) and v = List.nth parts (n - 1) in
     if m = "Slot" then
       emit ctx ~allow L1 loc
         (String.concat "." parts)
         "direct Slot access outside the substrate-owning libraries; go \
          through Patomic / Prim.S"
     else if m = "Region" && List.mem v region_data_plane then
       emit ctx ~allow L1 loc
         (String.concat "." parts)
         "data-plane Region access outside the substrate-owning libraries; \
          only lifecycle calls (create/crash/recovery/epoch observers) are \
          legal here");
  if
    (not (bills_by_hand ctx.rel))
    && n >= 2
    && List.nth parts (n - 2) = "Latency"
    && List.mem (List.nth parts (n - 1)) ("remote" :: access_counters)
  then emit ctx ~allow L1 loc (String.concat "." parts) hand_billed;
  (* L7: [Obj.magic] outside a pragma *)
  if cast_checked ctx.rel && ends_with ~suffix:[ "Obj"; "magic" ] parts then
    emit ctx ~allow L7 loc
      (String.concat "." parts)
      "unchecked cast: Obj.magic bypasses the type system";
  (* L5: nondeterminism in the replay-deterministic libraries *)
  if deterministic ctx.rel then
    let banned =
      List.exists
        (fun (a, b) ->
          let rec adj = function
            | x :: (y :: _ as rest) -> (x = a && y = b) || adj rest
            | _ -> false
          in
          adj parts)
        [ ("Domain", "DLS") ]
      || ends_with ~suffix:[ "Random"; "self_init" ] parts
      || ends_with ~suffix:[ "Random"; "State"; "make_self_init" ] parts
      || ends_with ~suffix:[ "Unix"; "gettimeofday" ] parts
      || List.mem "Mirror_clock" parts
      || ends_with ~suffix:[ "Unix"; "time" ] parts
      || ends_with ~suffix:[ "Sys"; "time" ] parts
    in
    if banned then
      emit ctx ~allow L5 loc
        (String.concat "." parts)
        "nondeterministic source in a replay-deterministic library: every \
         observable choice must derive from the scheduler seed"

and is_fun_expr e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> is_fun_expr b
  | _ -> false

(* Traversal context for L3: the body performs a [P.load_t] itself, or
   calls (one level) a function summarized as performing one. *)
and is_traversal_body ctx body =
  expr_exists
    (fun e ->
      match prim_app ctx e with
      | Some "load_t" -> true
      | _ -> (
          match e.pexp_desc with
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Longident.Lident n; _ }; _ }, _)
            -> (
              match Hashtbl.find_opt ctx.summaries n with
              | Some s -> s.s_load_t
              | None -> false)
          | _ -> false))
    body

and contains_raise e =
  expr_exists
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match lid_parts txt with
          | [ "raise" ] | [ "raise_notrace" ] -> true
          | parts ->
              ends_with ~suffix:[ "Printexc"; "reraise" ] parts
              || ends_with ~suffix:[ "Stdlib"; "raise" ] parts)
      | _ -> false)
    e

(* Analyze one function body: strip the parameter chain, compute the
   traversal context, then walk the body path-sensitively. *)
and scan_function ctx ~allow ~fname e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
      scan_function ctx ~allow ~fname body
  | Pexp_constraint (body, _) -> scan_function ctx ~allow ~fname body
  | Pexp_function cases ->
      let trav = is_traversal_body ctx e in
      List.iter
        (fun c ->
          Option.iter
            (fun g ->
              ignore
                (walk ctx ~allow ~fname ~trav { tail = false; p = false; w = false } g))
            c.pc_guard;
          ignore
            (walk ctx ~allow ~fname ~trav { tail = true; p = false; w = false } c.pc_rhs))
        cases
  | _ ->
      let trav = is_traversal_body ctx e in
      ignore
        (walk ctx ~allow ~fname ~trav { tail = true; p = false; w = false } e)

(* L4 over a binding: [let _ = P.cas ...] (also [_name]). *)
and check_l4_binding ctx ~allow vb =
  let discards =
    match vb.pvb_pat.ppat_desc with
    | Ppat_any -> true
    | Ppat_var { txt; _ } -> String.length txt > 0 && txt.[0] = '_'
    | _ -> false
  in
  if discards && prim_app ctx (unparen vb.pvb_expr) = Some "cas" then
    emit ctx ~allow L4 vb.pvb_loc
      (snip vb.pvb_expr)
      "CAS result discarded by a wildcard binding: the success/failure is \
       the linearization verdict"

and walk ctx ~allow ~fname ~trav st e : eff =
  let allow = allows_of e.pexp_attributes @ allow in
  let walk' st e = walk ctx ~allow ~fname ~trav st e in
  (* evaluate [es] left to right off the result path *)
  let seq st es =
    List.fold_left
      (fun acc e ->
        let r = walk' { tail = false; p = acc.e_p; w = acc.e_w } e in
        { e_p = r.e_p; e_w = r.e_w })
      { e_p = st.p; e_w = st.w }
      es
  in
  match e.pexp_desc with
  | Pexp_ident lid ->
      check_ident ctx ~allow lid.txt e.pexp_loc;
      { e_p = st.p; e_w = st.w }
  | Pexp_constant _ -> { e_p = st.p; e_w = st.w }
  | Pexp_construct ({ txt = Longident.Lident name; _ }, None)
    when st.tail && trav && not st.p
         && (name = "true" || name = "false" || name = "None") ->
      emit ctx ~allow L3 e.pexp_loc name
        (Printf.sprintf
           "decision `%s' reached through the traversal phase without a \
            P.load/P.persist of the deciding field on this path (a crash \
            could undo the observation that justified it)"
           name);
      { e_p = st.p; e_w = st.w }
  | Pexp_construct (_, arg) -> (
      match arg with
      | Some a -> seq st [ a ]
      | None -> { e_p = st.p; e_w = st.w })
  | Pexp_apply (head, args) -> (
      (* the callee ident itself (L1/L5), without treating it as a value *)
      (match head.pexp_desc with
      | Pexp_ident lid -> check_ident ctx ~allow lid.txt head.pexp_loc
      | _ -> ignore (walk' { tail = false; p = st.p; w = st.w } head));
      let ign =
        match head.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match lid_parts txt with
            | [ "ignore" ] | [ "Stdlib"; "ignore" ] -> true
            | _ -> false)
        | _ -> false
      in
      (* L4: ignore (P.cas ...) *)
      (match (ign, args) with
      | true, [ (_, a) ] when prim_app ctx (unparen a) = Some "cas" ->
          emit ctx ~allow L4 e.pexp_loc (snip e)
            "CAS result discarded: the success/failure is the linearization \
             verdict -- handle it, or annotate the deliberate helping CAS"
      | _ -> ());
      let st_args = seq st (List.map snd args) in
      let here = { st with p = st_args.e_p; w = st_args.e_w } in
      match prim_field ctx head with
      | Some "load_t" ->
          if here.w then
            emit ctx ~allow L2 e.pexp_loc (snip e)
              "traversal load after this function's first write/CAS: the \
               traversal phase is over once the operation has written \
               (use P.load)";
          { e_p = here.p; e_w = here.w }
      | Some "load" | Some "persist" -> { e_p = true; e_w = here.w }
      | Some "store" | Some "cas" | Some "fetch_add" ->
          { e_p = here.p; e_w = true }
      | Some _ -> { e_p = here.p; e_w = here.w }
      | None -> (
          (* one-level callee summary: a call to a function that persists
             counts as persisting the path *)
          match head.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } -> (
              match Hashtbl.find_opt ctx.summaries n with
              | Some s when s.s_persist -> { e_p = true; e_w = here.w }
              | _ -> { e_p = here.p; e_w = here.w })
          | _ -> { e_p = here.p; e_w = here.w }))
  | Pexp_sequence (a, b) ->
      let ea = walk' { tail = false; p = st.p; w = st.w } a in
      walk' { tail = st.tail; p = ea.e_p; w = ea.e_w } b
  | Pexp_let (_, vbs, body) ->
      let acc =
        List.fold_left
          (fun acc vb ->
            let vallow = allows_of vb.pvb_attributes @ allow in
            check_l4_binding ctx ~allow:vallow vb;
            if is_fun_expr vb.pvb_expr then begin
              let fname' =
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> txt
                | _ -> fname
              in
              scan_function ctx ~allow:vallow ~fname:fname' vb.pvb_expr;
              acc
            end
            else
              let r =
                walk ctx ~allow:vallow ~fname ~trav
                  { tail = false; p = acc.e_p; w = acc.e_w }
                  vb.pvb_expr
              in
              { e_p = r.e_p; e_w = r.e_w })
          { e_p = st.p; e_w = st.w }
          vbs
      in
      walk' { tail = st.tail; p = acc.e_p; w = acc.e_w } body
  | Pexp_ifthenelse (c, t, eo) -> (
      let ec = walk' { tail = false; p = st.p; w = st.w } c in
      let base = { tail = st.tail; p = ec.e_p; w = ec.e_w } in
      let et = walk' base t in
      match eo with
      | Some el ->
          let ee = walk' base el in
          { e_p = et.e_p && ee.e_p; e_w = et.e_w || ee.e_w }
      | None -> { e_p = base.p; e_w = et.e_w })
  | Pexp_match (scr, cases) ->
      let es = walk' { tail = false; p = st.p; w = st.w } scr in
      walk_cases ctx ~allow ~fname ~trav
        { tail = st.tail; p = es.e_p; w = es.e_w }
        cases
  | Pexp_try (body, cases) ->
      (* L6 over the handlers *)
      List.iter
        (fun c ->
          let callow = allows_of c.pc_rhs.pexp_attributes @ allow in
          let catches_corrupt =
            pat_exists
              (fun p ->
                match p.ppat_desc with
                | Ppat_construct (lid, _) ->
                    ends_with ~suffix:[ "Recovery_corrupt" ] (lid_parts lid.txt)
                | _ -> false)
              c.pc_lhs
          in
          let catch_all =
            pat_exists
              (fun p ->
                match p.ppat_desc with
                | Ppat_any | Ppat_var _ -> true
                | _ -> false)
              c.pc_lhs
          in
          if catches_corrupt && not (contains_raise c.pc_rhs) then
            emit ctx ~allow:callow L6 c.pc_lhs.ppat_loc (snip c.pc_rhs)
              "Recovery_corrupt swallowed: recovery must re-raise (or \
               convert to an explicit error), never continue on a corrupt \
               image"
          else if
            catch_all
            && (not (contains_raise c.pc_rhs))
            && lowercase_contains fname "recover"
          then
            emit ctx ~allow:callow L6 c.pc_lhs.ppat_loc (snip c.pc_rhs)
              "catch-all exception handler in recovery code: name the \
               exceptions recovery may absorb, or re-raise")
        cases;
      let eb = walk' { tail = st.tail; p = st.p; w = st.w } body in
      let eh =
        walk_cases ctx ~allow ~fname ~trav
          { tail = st.tail; p = st.p; w = st.w }
          cases
      in
      { e_p = eb.e_p && eh.e_p; e_w = eb.e_w || eh.e_w }
  | Pexp_fun _ | Pexp_function _ ->
      scan_function ctx ~allow ~fname e;
      { e_p = st.p; e_w = st.w }
  | Pexp_newtype (_, b) -> walk' st b
  | Pexp_constraint (b, _) -> walk' st b
  | Pexp_open (_, b) -> walk' { tail = st.tail; p = st.p; w = st.w } b
  | Pexp_record (fields, base) ->
      (* W2: two or more sibling fields allocated with P.make (or its
         birth-taking twin P.make_born) *)
      let makes =
        List.filter
          (fun (_, fe) ->
            match prim_app ctx (unparen fe) with
            | Some ("make" | "make_born") -> true
            | _ -> false)
          fields
      in
      (if List.length makes >= 2 then
         match makes with
         | (first, _) :: rest ->
             List.iter
               (fun (_, fe) ->
                 emit ctx ~allow W2 fe.pexp_loc (snip fe)
                   (Printf.sprintf
                      "sibling persistent fields allocated independently: \
                       P.make_near would co-locate this field with `%s' on \
                       one cache line (one write-back instead of two)"
                      (String.concat "." (lid_parts first.txt))))
               rest
         | [] -> ());
      let es = List.map snd fields @ Option.to_list base in
      seq st es
  | Pexp_tuple es | Pexp_array es -> seq st es
  | Pexp_field (b, _) -> seq st [ b ]
  | Pexp_setfield (a, { txt = field; loc }, b) ->
      (match List.rev (lid_parts field) with
      | f :: "Stats" :: _
        when (not (bills_by_hand ctx.rel)) && List.mem f access_counters ->
          emit ctx ~allow L1 loc (snip e) hand_billed
      | _ -> ());
      seq st [ a; b ]
  | Pexp_assert a | Pexp_lazy a -> seq st [ a ]
  | Pexp_while (c, b) -> seq st [ c; b ]
  | Pexp_for (_, a, b, _, body) -> seq st [ a; b; body ]
  | Pexp_letmodule (_, me, body) ->
      walk_module ctx ~allow me;
      walk' st body
  | _ ->
      (* fallback: visit every child through this walker, off the result
         path, threading the persist/write state *)
      let p = ref st.p and w = ref st.w in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun _ c ->
              let r = walk' { tail = false; p = !p; w = !w } c in
              p := r.e_p;
              w := r.e_w);
        }
      in
      Ast_iterator.default_iterator.expr it e;
      { e_p = !p; e_w = !w }

and walk_cases ctx ~allow ~fname ~trav st cases =
  let effs =
    List.map
      (fun c ->
        let callow = allows_of c.pc_rhs.pexp_attributes @ allow in
        let g =
          match c.pc_guard with
          | Some g ->
              walk ctx ~allow:callow ~fname ~trav
                { tail = false; p = st.p; w = st.w }
                g
          | None -> { e_p = st.p; e_w = st.w }
        in
        walk ctx ~allow:callow ~fname ~trav
          { tail = st.tail; p = g.e_p; w = g.e_w }
          c.pc_rhs)
      cases
  in
  {
    e_p = st.p || (effs <> [] && List.for_all (fun e -> e.e_p) effs);
    e_w = List.fold_left (fun a e -> a || e.e_w) st.w effs;
  }

and lowercase_contains hay needle =
  let hay = String.lowercase_ascii hay in
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

and walk_module ctx ~allow me =
  match me.pmod_desc with
  | Pmod_structure s -> walk_structure ctx ~allow s
  | Pmod_functor (_, body) -> walk_module ctx ~allow body
  | Pmod_constraint (me, _) -> walk_module ctx ~allow me
  | Pmod_apply (a, b) ->
      walk_module ctx ~allow a;
      walk_module ctx ~allow b
  | _ -> ()

and walk_structure ctx ~allow str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a -> (
          match allow_of_attr a with
          | Some ra -> ctx.file_allow <- ra :: ctx.file_allow
          | None -> ())
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let vallow = allows_of vb.pvb_attributes @ allow in
              check_l4_binding ctx ~allow:vallow vb;
              let fname =
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } -> txt
                | _ -> ""
              in
              scan_function ctx ~allow:vallow ~fname vb.pvb_expr)
            vbs
      | Pstr_eval (e, attrs) ->
          let allow = allows_of attrs @ allow in
          scan_function ctx ~allow ~fname:"" e
      | Pstr_primitive vd
        when cast_checked ctx.rel && List.mem "%identity" vd.pval_prim ->
          emit ctx
            ~allow:(allows_of vd.pval_attributes @ allow)
            L7 vd.pval_loc
            ("external " ^ vd.pval_name.txt)
            "unchecked cast: an %identity external bypasses the type system"
      | Pstr_module mb -> walk_module ctx ~allow mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter (fun mb -> walk_module ctx ~allow mb.pmb_expr) mbs
      | Pstr_include { pincl_mod; _ } -> walk_module ctx ~allow pincl_mod
      | _ -> ())
    str

(* -- entry points ----------------------------------------------------------- *)

(** Analyze one compilation unit.  [rel] is the repo-relative path (it
    decides which directory-scoped rules apply and names the findings).
    Raises [Syntaxerr.Error] on unparsable source. *)
let analyze ~rel source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf rel;
  let str = Parse.implementation lexbuf in
  let ctx =
    {
      rel;
      prim = Hashtbl.create 4;
      summaries = Hashtbl.create 32;
      file_allow = [];
      out = [];
    }
  in
  collect_prim_params str ctx.prim;
  collect_summaries ctx str;
  (* file-level pragmas first, so a header pragma covers the whole file
     regardless of walk order *)
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a -> (
          match allow_of_attr a with
          | Some ra -> ctx.file_allow <- ra :: ctx.file_allow
          | None -> ())
      | _ -> ())
    str;
  walk_structure ctx ~allow:[] str;
  List.sort
    (fun a b ->
      match compare a.f_line b.f_line with
      | 0 -> compare a.f_col b.f_col
      | c -> c)
    ctx.out

let analyze_path ~root ~rel =
  let ic = open_in_bin (Filename.concat root rel) in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  analyze ~rel source

(** Active findings: unsuppressed, and warning-tier only when [strict]. *)
let active ?(strict = false) findings =
  List.filter
    (fun f ->
      f.f_suppressed = None && (strict || tier f.f_rule = Error))
    findings

(** The pragma that would suppress [f], for the diagnostic footer. *)
let suppression_hint f =
  let id = rule_id f.f_rule in
  Printf.sprintf
    "suppress: (e [@mlint.allow %s \"reason\"]) on the expression or \
     binding, or file-level [@@@mlint.allow %s \"reason\"]"
    id id
