open! Import

type outcome = { certificate : Certificate.t; layers : int list }

let size_bound ~n ~k ~epsilon =
  float_of_int k *. float_of_int n *. (1.0 +. epsilon)

let run ~k ~epsilon g =
  if k < 1 then invalid_arg "Spanner_packing.run: k >= 1";
  if epsilon <= 0.0 then invalid_arg "Spanner_packing.run: epsilon > 0";
  let t = max 1 (int_of_float (ceil (1.0 /. epsilon))) in
  let m = Graph.m g in
  let keep = Array.make m false in
  let remaining = Array.make m true in
  let rounds = Rounds.create () in
  let layers = ref [] in
  let continue = ref true in
  let step = ref 0 in
  while !continue && !step < k do
    incr step;
    let sub, mapping = Graph.sub_with_mapping g remaining in
    if Graph.m sub = 0 then continue := false
    else begin
      let out = Ultra_sparse.run ~t sub in
      let layer_size = Spanner.size out.Ultra_sparse.spanner in
      layers := layer_size :: !layers;
      Rounds.merge_into rounds out.Ultra_sparse.spanner.Spanner.rounds;
      Array.iteri
        (fun sub_eid kept ->
          if kept then begin
            let orig = mapping.(sub_eid) in
            keep.(orig) <- true;
            remaining.(orig) <- false
          end)
        out.Ultra_sparse.spanner.Spanner.keep
    end
  done;
  { certificate = { Certificate.keep; rounds; k }; layers = List.rev !layers }
