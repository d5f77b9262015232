open! Import

type t = { keep : bool array; rounds : Rounds.t }

let empty g = { keep = Array.make (Graph.m g) false; rounds = Rounds.create () }

let of_eids g ?rounds eids =
  let t =
    {
      keep = Array.make (Graph.m g) false;
      rounds = (match rounds with Some r -> r | None -> Rounds.create ());
    }
  in
  List.iter
    (fun id ->
      if id < 0 || id >= Graph.m g then invalid_arg "Spanner.of_eids: bad id";
      t.keep.(id) <- true)
    eids;
  t

let size t = Array.fold_left (fun a k -> if k then a + 1 else a) 0 t.keep

let total_rounds t = Rounds.total t.rounds

let eids t =
  let acc = ref [] in
  for i = Array.length t.keep - 1 downto 0 do
    if t.keep.(i) then acc := i :: !acc
  done;
  !acc

let union a b =
  if Array.length a.keep <> Array.length b.keep then
    invalid_arg "Spanner.union: different graphs";
  let rounds = Rounds.create () in
  Rounds.merge_into rounds a.rounds;
  Rounds.merge_into rounds b.rounds;
  { keep = Array.mapi (fun i k -> k || b.keep.(i)) a.keep; rounds }

let mem t id = t.keep.(id)

let weight g t =
  let acc = ref 0 in
  Array.iteri (fun id k -> if k then acc := !acc + Graph.weight g id) t.keep;
  !acc

let lightness g t =
  let mst = Spanning_tree.forest_weight g (Spanning_tree.kruskal_mst g) in
  if mst = 0 then Float.nan else float_of_int (weight g t) /. float_of_int mst

let is_spanning g t = Connectivity.spans g t.keep

let max_stretch g t = Stretch_check.max_edge_stretch g t.keep

let validate g t ~alpha =
  if Array.length t.keep <> Graph.m g then Error "mask length mismatch"
  else if not (is_spanning g t) then Error "not spanning"
  else begin
    let s = max_stretch g t in
    if s <= alpha +. 1e-9 then Ok ()
    else Error (Printf.sprintf "stretch %.3f exceeds %.3f" s alpha)
  end
