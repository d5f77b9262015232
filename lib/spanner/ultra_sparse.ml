open! Import

type outcome = {
  spanner : Spanner.t;
  t_inner : int;
  partition_clusters : int;
  quotient_edges_kept : int;
  attempts : int;
}

let bound ~n ~t = n + (n / t)

let default_sparse g =
  let out = Linear_size.run ~variant:Linear_size.Deterministic g in
  out.Linear_size.spanner

let run ?(sparse = default_sparse) ~t g =
  if t < 1 then invalid_arg "Ultra_sparse.run: t >= 1";
  let n = Graph.n g in
  let budget = n / t in
  let st = Stretch_friendly.start ~strategy:Stretch_friendly.Matched g in
  for _ = 1 to Stretch_friendly.iterations t do
    Stretch_friendly.advance st
  done;
  let rec attempt t_inner tries =
    let part, info = Stretch_friendly.result st in
    let contraction = Contraction.make g part in
    let quotient = contraction.Contraction.quotient in
    let qspanner = sparse quotient in
    let extra = Spanner.size qspanner in
    if extra > budget && Graph.n quotient > 1 && tries < 30 then begin
      Stretch_friendly.advance st;
      attempt (2 * t_inner) (tries + 1)
    end
    else begin
      let rounds = Rounds.create () in
      Rounds.merge_into rounds info.Stretch_friendly.rounds;
      (* Cluster-graph dilation: each quotient round costs up to
         (2·radius + 1) network rounds. *)
      let radius = Partition.max_radius part in
      Rounds.charge ~label:"ultra:quotient-spanner" rounds
        (Spanner.total_rounds qspanner * ((2 * radius) + 1));
      let keep = Array.make (Graph.m g) false in
      Array.iter (fun eid -> if eid >= 0 then keep.(eid) <- true)
        part.Partition.parent_eid;
      let repr = contraction.Contraction.repr_eid in
      Array.iteri
        (fun qid kept -> if kept then keep.(repr.(qid)) <- true)
        qspanner.Spanner.keep;
      let spanner = { Spanner.keep; rounds } in
      {
        spanner;
        t_inner;
        partition_clusters = Partition.count part;
        quotient_edges_kept = extra;
        attempts = tries + 1;
      }
    end
  in
  attempt t 0
