let to_channel oc g =
  Printf.fprintf oc "%d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges g (fun e ->
      Printf.fprintf oc "%d %d %d\n" e.Graph.u e.Graph.v e.Graph.w)

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun e ->
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" e.Graph.u e.Graph.v e.Graph.w));
  Buffer.contents buf

let max_vertices = 1 lsl 24

let check_vertices n =
  if n > max_vertices then
    failwith
      (Printf.sprintf "Graph_io: vertex count %d exceeds the cap of %d" n
         max_vertices)

let parse_lines lines =
  let lines =
    List.filter
      (fun l ->
        let l = String.trim l in
        String.length l > 0 && l.[0] <> '#')
      lines
  in
  match lines with
  | [] -> failwith "Graph_io: empty input"
  | header :: rest ->
      let n, m =
        try Scanf.sscanf header " %d %d" (fun a b -> (a, b))
        with _ -> failwith "Graph_io: bad header"
      in
      check_vertices n;
      let triples =
        List.map
          (fun line ->
            try Scanf.sscanf line " %d %d %d" (fun u v w -> (u, v, w))
            with _ -> failwith ("Graph_io: bad edge line: " ^ line))
          rest
      in
      if List.length triples <> m then
        failwith "Graph_io: edge count does not match header";
      Graph.of_edges ~n triples

let of_string s = parse_lines (String.split_on_char '\n' s)

let of_channel ic =
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  parse_lines (List.rev !lines)

let save path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc g)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

(* ---------- DIMACS ---------- *)

let to_dimacs g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p sp %d %d\n" (Graph.n g) (2 * Graph.m g));
  Graph.iter_edges g (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d\n" (e.Graph.u + 1) (e.Graph.v + 1) e.Graph.w);
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d\n" (e.Graph.v + 1) (e.Graph.u + 1) e.Graph.w));
  Buffer.contents buf

let of_dimacs s =
  let lines = String.split_on_char '\n' s in
  let n = ref (-1) in
  let triples = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line > 0 then
        match line.[0] with
        | 'c' -> ()
        | 'p' ->
            (try
               Scanf.sscanf line "p %s %d %d" (fun _ nn _ -> n := nn)
             with _ -> failwith "Graph_io: bad DIMACS problem line");
            check_vertices !n
        | 'a' ->
            (try
               Scanf.sscanf line "a %d %d %d" (fun u v w ->
                   if u <> v then triples := (u - 1, v - 1, w) :: !triples)
             with _ -> failwith ("Graph_io: bad DIMACS arc line: " ^ line))
        | _ -> failwith ("Graph_io: unknown DIMACS line: " ^ line))
    lines;
  if !n < 0 then failwith "Graph_io: DIMACS input has no problem line";
  Graph.of_edges ~n:!n !triples

let save_dimacs path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dimacs g))

let load_dimacs path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 4096
         done
       with End_of_file -> ());
      of_dimacs (Buffer.contents buf))
