(** Operation streams generated from the seed before any timing starts,
    and the sequential oracle they are checked against after it ends.

    A stream is three flat arrays, so the timed loop reads its next op
    without allocating and writes each result into a preallocated byte. *)

module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng

type t = { kind : Bytes.t; key : int array; value : int array }
(** [kind] holds one of {!lookup}, {!insert}, {!remove} per op; the timed
    loops match on these characters directly. *)

let lookup = 'l'
let insert = 'i'
let remove = 'r'

(** [n] ops of [mix] with keys uniform in [\[0, keys)]. *)
let generate rng mix ~keys n =
  let kind = Bytes.make n lookup in
  let key = Array.make n 0 in
  let value = Array.make n 0 in
  for i = 0 to n - 1 do
    let k =
      match W.gen rng mix ~range:keys with
      | W.Lookup k -> k
      | W.Insert (k, v) ->
          Bytes.set kind i insert;
          value.(i) <- v;
          k
      | W.Remove k ->
          Bytes.set kind i remove;
          k
    in
    key.(i) <- k
  done;
  { kind; key; value }

(** The starting keys: the first half of a seeded shuffle of
    [\[0, range)], in shuffled insertion order.  Each key maps to itself. *)
let prefill rng ~range =
  let a = Array.init range Fun.id in
  for i = range - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 (range / 2)

(** Results are stored one byte per op: ['\001'] for [true]. *)
let results n = Bytes.make n '\000'

let[@inline] set_result res i ok =
  Bytes.unsafe_set res i (if ok then '\001' else '\000')

let model keys =
  let m = Hashtbl.create (2 * Array.length keys) in
  Array.iter (fun k -> Hashtbl.replace m k k) keys;
  m

(** Replay the first [n] ops against the sequential model, updating it,
    and count the results that disagree with it. *)
let replay model s res n =
  let bad = ref 0 in
  for i = 0 to n - 1 do
    let k = s.key.(i) in
    let present = Hashtbl.mem model k in
    let expect =
      match Bytes.get s.kind i with
      | 'l' -> present
      | 'i' ->
          if not present then Hashtbl.replace model k s.value.(i);
          not present
      | _ ->
          if present then Hashtbl.remove model k;
          present
    in
    if expect <> (Bytes.get res i = '\001') then incr bad
  done;
  !bad

(** Bindings that differ between the model and a structure's [to_list]:
    keys lost, keys spurious, and keys holding the wrong value. *)
let diff model (got : (int * int) list) =
  let bad = ref 0 and found = ref 0 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt model k with
      | Some v' when v' = v -> incr found
      | Some _ ->
          incr found;
          incr bad
      | None -> incr bad)
    got;
  !bad + (Hashtbl.length model - !found)
