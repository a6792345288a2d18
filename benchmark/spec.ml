(* BENCHMARK.json, the benchmark's definition: its workloads and, for
   every metric, the unit, the better direction and (end-to-end only)
   the regression bound. The runner reports exactly these metrics and
   [compare] judges with exactly these bounds, so the file is the one
   place either is stated. *)

module J = Analysis.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** Share of the parent's figure; [0.] for per-layer. *)
}

type t = {
  workloads : string list;
  run_seconds : float;
  end_to_end : metric list;
  per_layer : metric list;
}

let number = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let field name conv j =
  match Option.bind (J.member name j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "BENCHMARK.json: missing or malformed %S" name)

let metric j =
  {
    name = field "name" J.to_str j;
    unit_ = field "unit" J.to_str j;
    lower_is_better =
      (match field "better" J.to_str j with
      | "lower" -> true
      | "higher" -> false
      | b -> failwith ("BENCHMARK.json: better must be lower or higher, not " ^ b));
    bound = Option.value ~default:0. (Option.bind (J.member "bound" j) number);
  }

let load path =
  let j =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  {
    workloads = List.map (field "name" J.to_str) (field "workloads" J.to_list j);
    run_seconds = field "run_seconds" number j;
    end_to_end = List.map metric (field "end_to_end" J.to_list j);
    per_layer = List.map metric (field "per_layer" J.to_list j);
  }
