(** In-memory spans for the traced run.

    Phase spans (set-up, the measured phase, the oracle, each recovery
    step) are a short list.  Op spans — one per call into [Sets] — live in
    preallocated flat arrays, together with the calling domain's
    [Stats] and minor-heap deltas across the call, so recording one
    allocates nothing.  Everything is written out as one CSV when the run
    ends.  Untraced runs never touch this module. *)

open Mirror_nvm

(** The [Stats] counters each op span carries, in CSV column order. *)
let counters =
  [|
    "dram_read";
    "nvm_read";
    "nvm_write";
    "nvm_cas";
    "flush";
    "fence";
    "flush_elided";
    "help";
    "cas_retry";
    "writes_deferred";
    "epoch_advance";
    "fence_batched";
  |]

let nc = Array.length counters
let epoch_advance_col = 10

let snap (s : Stats.t) a off =
  a.(off) <- s.dram_read;
  a.(off + 1) <- s.nvm_read;
  a.(off + 2) <- s.nvm_write;
  a.(off + 3) <- s.nvm_cas;
  a.(off + 4) <- s.flush;
  a.(off + 5) <- s.fence;
  a.(off + 6) <- s.flush_elided;
  a.(off + 7) <- s.help;
  a.(off + 8) <- s.cas_retry;
  a.(off + 9) <- s.writes_deferred;
  a.(off + 10) <- s.epoch_advance;
  a.(off + 11) <- s.fence_batched

type ops = {
  parent : int;  (** the measured-phase span the ops belong to *)
  kind : Bytes.t;
  start : int array;
  stop : int array;
  minor : Float.Array.t;
  counts : int array;  (** [nc] deltas per op *)
}

let ops ~parent kind n =
  {
    parent;
    kind;
    start = Array.make n 0;
    stop = Array.make n 0;
    minor = Float.Array.make n 0.;
    counts = Array.make (n * nc) 0;
  }

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : int;
  t1 : int;
}

type t = { mutable spans : span list; mutable op_spans : ops option }

let create () = { spans = []; op_spans = None }
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(** Record a phase span; [~parent:0] marks a root.
    Returns its length in seconds. *)
let record tr ?(parent = 0) ?(id = fresh_id ()) name t0 t1 =
  (match tr with
  | Some tr -> tr.spans <- { id; parent; name; t0; t1 } :: tr.spans
  | None -> ());
  Clock.seconds_between t0 t1

(** Time [f] as a phase span. *)
let phase tr ?parent ?id name f =
  let t0 = Clock.now () in
  let r = f () in
  (r, record tr ?parent ?id name t0 (Clock.now ()))

let op_name = function 'l' -> "lookup" | 'i' -> "insert" | _ -> "remove"

let write tr path =
  let oc = open_out path in
  output_string oc "id,parent,name,start_ns,end_ns,minor_words";
  Array.iter (fun c -> output_string oc ("," ^ c)) counters;
  output_char oc '\n';
  let blank = String.make nc ',' in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%s,%d,%d,%s\n" s.id s.parent s.name s.t0 s.t1
        blank)
    (List.rev tr.spans);
  Option.iter
    (fun o ->
      for i = 0 to Array.length o.start - 1 do
        Printf.fprintf oc "%d,%d,sets.%s,%d,%d,%.0f" (fresh_id ()) o.parent
          (op_name (Bytes.get o.kind i))
          o.start.(i) o.stop.(i)
          (Float.Array.get o.minor i);
        for j = 0 to nc - 1 do
          Printf.fprintf oc ",%d" o.counts.((i * nc) + j)
        done;
        output_char oc '\n'
      done)
    tr.op_spans;
  close_out oc
