(* Multi-account transfers: what Mirror alone does NOT give you (per-field
   durability, see examples/counters.ml) and what the transactional layer
   does — all-or-nothing multi-key updates that survive crashes at any
   point of the commit protocol.

     dune exec examples/bank.exe *)

module Tx = Mirror_handmade.Txmap

let accounts = 8
let initial = 100

let () =
  let region = Mirror_nvm.Region.create () in
  let bank = Tx.create ~capacity:32 region in
  (* open the accounts *)
  Tx.transaction bank (List.init accounts (fun a -> Tx.Put (a, initial)));
  let balance a = Option.value ~default:0 (Tx.get bank a) in
  let total () = List.init accounts balance |> List.fold_left ( + ) 0 in
  Printf.printf "opened %d accounts with %d each; total=%d\n" accounts initial
    (total ());
  assert (total () = accounts * initial);

  let transfer ~from_ ~to_ ~amount =
    (* read under the hood, then commit both sides atomically *)
    let b_from = balance from_ and b_to = balance to_ in
    if b_from >= amount then begin
      Tx.transaction bank
        [ Tx.Put (from_, b_from - amount); Tx.Put (to_, b_to + amount) ];
      true
    end
    else false
  in

  (* run transfers under the deterministic scheduler and pull the plug *)
  let rng = Mirror_workload.Rng.create 77 in
  let attempted = ref 0 in
  let task () =
    for _ = 1 to 40 do
      let a = Mirror_workload.Rng.int rng accounts in
      let b = (a + 1 + Mirror_workload.Rng.int rng (accounts - 1)) mod accounts in
      let amount = 1 + Mirror_workload.Rng.int rng 30 in
      if transfer ~from_:a ~to_:b ~amount then incr attempted
    done
  in
  let o = Mirror_schedsim.Sched.run ~seed:9 ~max_steps:600 [ task ] in
  Printf.printf "crash after %d steps (%d transfers completed before it)\n"
    o.Mirror_schedsim.Sched.steps !attempted;

  Mirror_nvm.Region.crash region;
  Mirror_nvm.Region.recovery_session region (fun () ->
      Tx.recover bank (* redo-log replay *));

  Printf.printf "after recovery: balances = [%s], total=%d\n"
    (String.concat "; "
       (List.init accounts (fun a -> string_of_int (balance a))))
    (total ());
  (* conservation: no money created or destroyed, even by a transfer cut
     between its two account writes — the log replay completes or drops it *)
  assert (total () = accounts * initial);
  print_endline "bank OK (money conserved across the crash)"
