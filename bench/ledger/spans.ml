(* The ledger's own span recorder, independent of the library's Obs layer
   so that per-layer numbers come from the benchmark's side of every call.

   A span has a name, start, end, parent span and operation id. Spans are
   kept in memory while recording is on and written out as JSON lines at
   exit. A layer's self time is its duration minus the durations of its
   direct children; spans here are strictly nested (everything they wrap
   is synchronous), so that difference is exactly the uncovered part. *)

type span = {
  name : string;
  op : int;  (* operation id, -1 outside any operation (set-up) *)
  parent : int;  (* index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

let now = Unix.gettimeofday
let recording = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let current_op = ref (-1)

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  current_op := -1

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(* [record name f] runs [f] inside a span when recording is on, and is
   exactly [f ()] otherwise. *)
let record name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with i :: _ -> i | [] -> -1 in
    let i =
      push { name; op = !current_op; parent; start = now (); stop = nan }
    in
    stack := i :: !stack;
    let close () =
      !spans.(i).stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* [traced f] runs [f] with recording on. *)
let traced f =
  let was = !recording in
  recording := true;
  Fun.protect ~finally:(fun () -> recording := was) f

(* [op id f] is the root span of one measured operation; every span opened
   inside it carries [id]. *)
let op id f =
  let saved = !current_op in
  current_op := id;
  Fun.protect ~finally:(fun () -> current_op := saved) (fun () -> record "op" f)

let all () = Array.sub !spans 0 !count
let duration s = s.stop -. s.start

(* Self time of every span, indexed like [all ()]. *)
let self_times () =
  let a = all () in
  let self = Array.map duration a in
  Array.iter
    (fun s ->
      if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    a;
  self

let durations name =
  all () |> Array.to_list
  |> List.filter (fun s -> s.name = name)
  |> List.map duration |> Array.of_list

let total name = Array.fold_left ( +. ) 0.0 (durations name)

(* Self times of the spans called [name]. *)
let self_of name =
  let a = all () and self = self_times () in
  let acc = ref [] in
  Array.iteri (fun i s -> if s.name = name then acc := self.(i) :: !acc) a;
  Array.of_list (List.rev !acc)

let write path =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("id", Obs.Json.Int i);
                ("name", Obs.Json.Str s.name);
                ("op", Obs.Json.Int s.op);
                ("parent", Obs.Json.Int s.parent);
                ("start", Obs.Json.Float s.start);
                ("end", Obs.Json.Float s.stop);
              ]));
      output_char oc '\n')
    (all ());
  close_out oc
