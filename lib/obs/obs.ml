(* Observability layer: span timers, counters, histograms, event traces,
   telemetry records.

   v2 is domain-safe. State lives in per-domain [store]s: every domain
   records into its own. A Par region gives each chunk a fresh store
   ([fork], [in_chunk]) and folds them into the caller's in chunk order
   at its [join], so [capture] snapshots one store.

   The contract that matters for performance is unchanged: when
   [enabled_flag] is false, every entry point is a single load-and-branch
   with no allocation, so instrumented code paths cost nothing in
   benchmark runs. *)

(* ------------------------------------------------------------------ *)
(* JSON *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Finite floats must survive a print/parse round trip exactly:
     integral values keep a ".0" so they stay floats, everything else
     gets 17 significant digits (enough for any IEEE double). *)
  let float_repr f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

  let to_string ?(indent = false) t =
    let buf = Buffer.create 256 in
    let pad depth =
      if indent then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
      end
    in
    let rec go depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (float_repr f)
      | Str s -> escape buf s
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        if items <> [] then pad depth;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape buf k;
            Buffer.add_string buf (if indent then ": " else ":");
            go (depth + 1) v)
          fields;
        if fields <> [] then pad depth;
        Buffer.add_char buf '}'
    in
    go 0 t;
    Buffer.contents buf

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* Append the UTF-8 encoding of a Unicode scalar value. *)
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let hex_digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let read_hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v =
        (hex_digit s.[!pos] lsl 12)
        lor (hex_digit s.[!pos + 1] lsl 8)
        lor (hex_digit s.[!pos + 2] lsl 4)
        lor hex_digit s.[!pos + 3]
      in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else begin
          let c = s.[!pos] in
          advance ();
          if c = '"' then Buffer.contents buf
          else if c = '\\' then begin
            (if !pos >= n then fail "unterminated escape");
            let e = s.[!pos] in
            advance ();
            (match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               (* Decode to UTF-8 bytes; surrogate pairs combine to one
                  astral code point, lone surrogates become U+FFFD. *)
               let c1 = read_hex4 () in
               if c1 >= 0xD800 && c1 <= 0xDBFF then begin
                 if
                   !pos + 6 <= n
                   && s.[!pos] = '\\'
                   && s.[!pos + 1] = 'u'
                 then begin
                   let save = !pos in
                   pos := !pos + 2;
                   let c2 = read_hex4 () in
                   if c2 >= 0xDC00 && c2 <= 0xDFFF then
                     add_utf8 buf
                       (0x10000
                       + ((c1 - 0xD800) lsl 10)
                       + (c2 - 0xDC00))
                   else begin
                     (* not a low surrogate: re-parse it on its own *)
                     pos := save;
                     add_utf8 buf 0xFFFD
                   end
                 end
                 else add_utf8 buf 0xFFFD
               end
               else if c1 >= 0xDC00 && c1 <= 0xDFFF then add_utf8 buf 0xFFFD
               else add_utf8 buf c1
             | _ -> fail "bad escape");
            go ()
          end
          else begin
            Buffer.add_char buf c;
            go ()
          end
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items := parse_value () :: !items;
              go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields := field () :: !fields;
              go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
      | Some c -> (
        match c with
        | '0' .. '9' | '-' -> parse_number ()
        | _ -> fail (Printf.sprintf "unexpected character %C" c))
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Hist = struct
  (* Log-bucketed: quarter-octave buckets (4 per power of two, ~19%
     wide), indexed with [frexp] so recording costs no transcendental
     call. Bucket 0 is the underflow sink (v <= 0 or < 2^min_exp), the
     last bucket is the overflow sink. No float sum is stored — only
     integer bucket counts plus exact min/max — so [merge] is exactly
     associative and capture merges are deterministic. *)

  let buckets_per_octave = 4
  let min_exp = -120 (* lowest representable bucket edge: 2^-120 *)
  let max_exp = 56 (* highest bucket edge: 2^56 seconds ~ forever *)
  let n_buckets = ((max_exp - min_exp) * buckets_per_octave) + 2

  type t = {
    mutable total : int;
    mutable min_v : float;
    mutable max_v : float;
    counts : int array;
  }

  let create () =
    { total = 0; min_v = infinity; max_v = neg_infinity;
      counts = Array.make n_buckets 0 }

  (* Sub-octave thresholds: 2^(-3/4), 2^(-1/2), 2^(-1/4) of the octave
     top, precomputed so bucketing is three compares on the mantissa. *)
  let q1 = 0.59460355750136051
  let q2 = 0.70710678118654757
  let q3 = 0.84089641525371450

  let bucket_of v =
    if not (v > 0.0) then 0 (* <= 0 and NaN *)
    else if v = infinity then n_buckets - 1
    else begin
      let m, e = Float.frexp v in
      (* v = m * 2^e with m in [0.5, 1) *)
      let q = if m < q1 then 0 else if m < q2 then 1 else if m < q3 then 2 else 3 in
      let idx = ((e - 1 - min_exp) * buckets_per_octave) + q + 1 in
      if idx < 1 then 0 else if idx > n_buckets - 2 then n_buckets - 1 else idx
    end

  let add h v =
    if Float.is_finite v then begin
      h.total <- h.total + 1;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let i = bucket_of v in
      h.counts.(i) <- h.counts.(i) + 1
    end

  let count h = h.total
  let min_value h = h.min_v
  let max_value h = h.max_v

  (* Upper edge of bucket [i]: the underflow sink ends at the lowest
     representable edge, interior bucket [i] at 2^(min_exp + i/4), and
     the overflow sink is unbounded. Exposed so exporters (Prometheus
     cumulative [le] buckets, dashboard sparklines) can label buckets
     without knowing the quarter-octave layout. *)
  let bucket_upper_edge i =
    if i <= 0 then 2.0 ** float_of_int min_exp
    else if i >= n_buckets - 1 then infinity
    else 2.0 ** (float_of_int min_exp +. (float_of_int i /. 4.0))

  let bucket_counts h =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then acc := (i, h.counts.(i)) :: !acc
    done;
    !acc

  let copy h =
    { total = h.total; min_v = h.min_v; max_v = h.max_v;
      counts = Array.copy h.counts }

  (* Add [src]'s samples into [dst] in place, so a handle to [dst] that
     {!histogram} gave out stays live. *)
  let absorb dst src =
    dst.total <- dst.total + src.total;
    dst.min_v <- Float.min dst.min_v src.min_v;
    dst.max_v <- Float.max dst.max_v src.max_v;
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts

  let merge a b =
    let h = copy a in
    absorb h b;
    h

  (* Nearest-rank percentile; the returned value is the geometric
     midpoint of the selected bucket, clamped to the observed [min,max]
     so p0/p100 are exact and single-sample hists report the sample. *)
  let percentile h p =
    if h.total = 0 then Float.nan
    else begin
      let rank =
        let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.total)) in
        if r < 1 then 1 else if r > h.total then h.total else r
      in
      let rec find i acc =
        let acc = acc + h.counts.(i) in
        if acc >= rank then i else find (i + 1) acc
      in
      let i = find 0 0 in
      let v =
        if i = 0 then h.min_v
        else if i = n_buckets - 1 then h.max_v
        else
          2.0 ** (float_of_int min_exp +. ((float_of_int (i - 1) +. 0.5) /. 4.0))
      in
      Float.min h.max_v (Float.max h.min_v v)
    end

  let to_json h =
    if h.total = 0 then Json.Obj [ ("count", Json.Int 0) ]
    else begin
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.counts.(i) > 0 then
          buckets := Json.List [ Json.Int i; Json.Int h.counts.(i) ] :: !buckets
      done;
      Json.Obj
        [
          ("count", Json.Int h.total);
          ("min", Json.Float h.min_v);
          ("max", Json.Float h.max_v);
          ("p50", Json.Float (percentile h 50.0));
          ("p95", Json.Float (percentile h 95.0));
          ("p99", Json.Float (percentile h 99.0));
          ("buckets", Json.List !buckets);
        ]
    end

  let of_json j =
    match Json.member "count" j with
    | Some (Json.Int 0) -> Ok (create ())
    | Some (Json.Int total) when total > 0 -> (
      match
        ( Option.bind (Json.member "min" j) Json.to_float,
          Option.bind (Json.member "max" j) Json.to_float,
          Json.member "buckets" j )
      with
      | Some min_v, Some max_v, Some (Json.List buckets) -> (
        let h = create () in
        h.total <- total;
        h.min_v <- min_v;
        h.max_v <- max_v;
        try
          List.iter
            (function
              | Json.List [ Json.Int i; Json.Int c ]
                when i >= 0 && i < n_buckets && c > 0 ->
                h.counts.(i) <- c
              | _ -> raise Exit)
            buckets;
          Ok h
        with Exit -> Error "hist: malformed bucket entry")
      | _ -> Error "hist: missing min/max/buckets")
    | _ -> Error "hist: missing count"
end

(* ------------------------------------------------------------------ *)
(* Rolling windows *)

module Window = struct
  (* A ring of [slots] wall-clock buckets of [bucket_s] seconds: bucket
     [e mod slots] holds the total recorded during epoch
     e = floor(now / bucket_s). Slots are lazily zeroed when revisited
     after a wrap, so neither recording nor querying ever scans more than
     the ring. Like [Hist], only plain sums are kept, so window queries
     are deterministic given the samples and their timestamps ([?now] is
     injectable for tests). *)

  let wall = Unix.gettimeofday
  let bucket_s = 5.0
  let slots = 181

  type t = {
    epochs : int array; (* epoch stamped into each slot; -1 = never *)
    vals : float array;
  }

  let create () =
    { epochs = Array.make slots (-1); vals = Array.make slots 0.0 }

  let epoch_of now = int_of_float (Float.floor (now /. bucket_s))

  (* The number of buckets, current (partial) one included, that cover
     [span_s]; clamped to the ring depth. *)
  let buckets_of span_s =
    let k = int_of_float (Float.ceil (span_s /. bucket_s)) in
    if k < 1 then 1 else if k > slots then slots else k

  let add ?now t v =
    let now = match now with Some x -> x | None -> wall () in
    let e = epoch_of now in
    if e >= 0 then begin
      let i = e mod slots in
      if t.epochs.(i) <> e then begin
        t.epochs.(i) <- e;
        t.vals.(i) <- 0.0
      end;
      t.vals.(i) <- t.vals.(i) +. v
    end

  let sum ?now t ~span_s =
    let now = match now with Some x -> x | None -> wall () in
    let e = epoch_of now in
    let acc = ref 0.0 in
    for j = 0 to buckets_of span_s - 1 do
      let ej = e - j in
      if ej >= 0 then begin
        let i = ej mod slots in
        if t.epochs.(i) = ej then acc := !acc +. t.vals.(i)
      end
    done;
    !acc

  let rate ?now t ~span_s =
    if span_s <= 0.0 then 0.0 else sum ?now t ~span_s /. span_s

  (* Same ring, one histogram per slot: [merged] folds the live slots
     with [Hist.merge], which is exactly associative, so a windowed
     percentile is as deterministic as a lifetime one. *)
  type hist = { h_epochs : int array; hists : Hist.t array }

  let create_hist () =
    {
      h_epochs = Array.make slots (-1);
      hists = Array.init slots (fun _ -> Hist.create ());
    }

  let observe ?now w v =
    let now = match now with Some x -> x | None -> wall () in
    let e = epoch_of now in
    if e >= 0 then begin
      let i = e mod slots in
      if w.h_epochs.(i) <> e then begin
        w.h_epochs.(i) <- e;
        w.hists.(i) <- Hist.create ()
      end;
      Hist.add w.hists.(i) v
    end

  let merged ?now w ~span_s =
    let now = match now with Some x -> x | None -> wall () in
    let e = epoch_of now in
    let acc = ref (Hist.create ()) in
    for j = buckets_of span_s - 1 downto 0 do
      let ej = e - j in
      if ej >= 0 then begin
        let i = ej mod slots in
        if w.h_epochs.(i) = ej then acc := Hist.merge !acc w.hists.(i)
      end
    done;
    !acc
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

module Prom = struct
  (* Prometheus text format 0.0.4 rendering plus a structural validator
     (the bundled fallback for environments without promtool). *)

  type metric =
    | Counter of { name : string; help : string; value : float }
    | Gauge of { name : string; help : string; value : float }
    | Histogram of { name : string; help : string; hist : Hist.t }

  let name_start_ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

  let name_ok c = name_start_ok c || (c >= '0' && c <= '9')

  (* Map an Obs path ("serve/requests") onto the metric-name alphabet
     [a-zA-Z_:][a-zA-Z0-9_:]*. *)
  let metric_name s =
    let b = Buffer.create (String.length s + 1) in
    String.iteri
      (fun i c ->
        let c = if name_ok c then c else '_' in
        if i = 0 && not (name_start_ok c) then Buffer.add_char b '_';
        Buffer.add_char b c)
      s;
    if Buffer.length b = 0 then "_" else Buffer.contents b

  (* Prometheus floats are Go floats: NaN / +Inf / -Inf spelled out. *)
  let value_repr f =
    if Float.is_nan f then "NaN"
    else if f = infinity then "+Inf"
    else if f = neg_infinity then "-Inf"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let escape_help s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let render metrics =
    let b = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let head name help kind =
      if help <> "" then add "# HELP %s %s\n" name (escape_help help);
      add "# TYPE %s %s\n" name kind
    in
    List.iter
      (fun m ->
        match m with
        | Counter { name; help; value } ->
          let name = metric_name name in
          head name help "counter";
          add "%s %s\n" name (value_repr value)
        | Gauge { name; help; value } ->
          let name = metric_name name in
          head name help "gauge";
          add "%s %s\n" name (value_repr value)
        | Histogram { name; help; hist } ->
          let name = metric_name name in
          head name help "histogram";
          let total = Hist.count hist in
          let cum = ref 0 in
          (* The stored histogram has no float sum (that is what makes
             its merge exact); approximate _sum from bucket midpoints
             clamped to the observed min/max. *)
          let sum = ref 0.0 in
          List.iter
            (fun (i, c) ->
              cum := !cum + c;
              add "%s_bucket{le=\"%s\"} %d\n" name
                (value_repr (Hist.bucket_upper_edge i))
                !cum;
              let mid =
                if i <= 0 then Hist.min_value hist
                else
                  let lo = Hist.bucket_upper_edge (i - 1)
                  and hi = Hist.bucket_upper_edge i in
                  if Float.is_finite hi then sqrt (lo *. hi)
                  else Hist.max_value hist
              in
              let mid =
                Float.min (Hist.max_value hist)
                  (Float.max (Hist.min_value hist) mid)
              in
              sum := !sum +. (float_of_int c *. mid))
            (Hist.bucket_counts hist);
          add "%s_bucket{le=\"+Inf\"} %d\n" name total;
          add "%s_sum %s\n" name (value_repr (if total = 0 then 0.0 else !sum));
          add "%s_count %d\n" name total)
      metrics;
    Buffer.contents b

  (* ---- validator ---- *)

  type family = {
    mutable ftype : string; (* "" until a TYPE line names it *)
    mutable sampled : bool;
    mutable buckets : (float * float) list; (* le, cumulative count *)
    mutable count_v : float option;
  }

  let validate text =
    let err = ref None in
    let fail line msg =
      if !err = None then err := Some (Printf.sprintf "line %d: %s" line msg)
    in
    let families : (string, family) Hashtbl.t = Hashtbl.create 16 in
    let family name =
      match Hashtbl.find_opt families name with
      | Some f -> f
      | None ->
        let f =
          { ftype = ""; sampled = false; buckets = []; count_v = None }
        in
        Hashtbl.add families name f;
        f
    in
    (* strip the histogram-series suffix so _bucket/_sum/_count samples
       attach to their family *)
    let base_of name =
      let strip suffix =
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          Some (String.sub name 0 (ln - ls))
        else None
      in
      match strip "_bucket" with
      | Some b when (family b).ftype = "histogram" -> (b, `Bucket)
      | _ -> (
        match strip "_sum" with
        | Some b when (family b).ftype = "histogram" -> (b, `Sum)
        | _ -> (
          match strip "_count" with
          | Some b when (family b).ftype = "histogram" -> (b, `Count)
          | _ -> (name, `Plain)))
    in
    let valid_name s =
      s <> ""
      && name_start_ok s.[0]
      && String.for_all name_ok s
    in
    let parse_float s =
      match s with
      | "+Inf" | "Inf" -> Some infinity
      | "-Inf" -> Some neg_infinity
      | "NaN" -> Some Float.nan
      | s -> float_of_string_opt s
    in
    let n_samples = ref 0 in
    let lines = String.split_on_char '\n' text in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        if !err <> None || line = "" then ()
        else if line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: kind ->
            let kind = String.concat " " kind in
            if not (valid_name name) then
              fail lineno (Printf.sprintf "bad metric name %S" name)
            else if
              not
                (List.mem kind
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then fail lineno (Printf.sprintf "bad TYPE %S" kind)
            else begin
              let f = family name in
              if f.sampled then
                fail lineno
                  (Printf.sprintf "TYPE %s after its samples" name)
              else if f.ftype <> "" then
                fail lineno (Printf.sprintf "duplicate TYPE for %s" name)
              else f.ftype <- kind
            end
          | "#" :: "HELP" :: name :: _ ->
            if not (valid_name name) then
              fail lineno (Printf.sprintf "bad metric name %S" name)
          | _ -> () (* free-form comment *)
        end
        else begin
          (* sample line: name[{labels}] value [timestamp] *)
          let name_end =
            let rec go j =
              if j < String.length line && name_ok line.[j] then go (j + 1)
              else j
            in
            go 0
          in
          let name = String.sub line 0 name_end in
          if not (valid_name name) then
            fail lineno (Printf.sprintf "bad metric name at %S" line)
          else begin
            let rest =
              String.sub line name_end (String.length line - name_end)
            in
            (* split off the label block, honoring quoted strings *)
            let labels, rest =
              if rest <> "" && rest.[0] = '{' then begin
                let buf = Buffer.create 32 in
                let j = ref 1 and closed = ref false and quoted = ref false in
                while (not !closed) && !j < String.length rest do
                  let c = rest.[!j] in
                  (if !quoted then begin
                     if c = '\\' && !j + 1 < String.length rest then begin
                       Buffer.add_char buf c;
                       incr j;
                       Buffer.add_char buf rest.[!j]
                     end
                     else begin
                       if c = '"' then quoted := false;
                       Buffer.add_char buf c
                     end
                   end
                   else if c = '"' then begin
                     quoted := true;
                     Buffer.add_char buf c
                   end
                   else if c = '}' then closed := true
                   else Buffer.add_char buf c);
                  incr j
                done;
                if not !closed then begin
                  fail lineno "unterminated label block";
                  (None, "")
                end
                else
                  ( Some (Buffer.contents buf),
                    String.sub rest !j (String.length rest - !j) )
              end
              else (None, rest)
            in
            let le = ref None in
            (match labels with
             | None -> ()
             | Some body ->
               if body <> "" then
                 (* split on commas outside quotes *)
                 let parts = ref [] and buf = Buffer.create 16 in
                 let quoted = ref false in
                 String.iter
                   (fun c ->
                     if c = '"' then begin
                       quoted := not !quoted;
                       Buffer.add_char buf c
                     end
                     else if c = ',' && not !quoted then begin
                       parts := Buffer.contents buf :: !parts;
                       Buffer.clear buf
                     end
                     else Buffer.add_char buf c)
                   body;
                 if Buffer.length buf > 0 then
                   parts := Buffer.contents buf :: !parts;
                 List.iter
                   (fun part ->
                     match String.index_opt part '=' with
                     | None -> fail lineno (Printf.sprintf "bad label %S" part)
                     | Some eq ->
                       let k = String.sub part 0 eq in
                       let v =
                         String.sub part (eq + 1)
                           (String.length part - eq - 1)
                       in
                       if
                         not
                           (valid_name k
                           && not (String.contains k ':'))
                       then
                         fail lineno (Printf.sprintf "bad label name %S" k)
                       else if
                         String.length v < 2
                         || v.[0] <> '"'
                         || v.[String.length v - 1] <> '"'
                       then
                         fail lineno
                           (Printf.sprintf "label %s value not quoted" k)
                       else if k = "le" then
                         le :=
                           parse_float (String.sub v 1 (String.length v - 2)))
                   (List.rev !parts));
            if !err = None then begin
              let fields =
                List.filter (fun s -> s <> "")
                  (String.split_on_char ' '
                     (String.concat " " (String.split_on_char '\t' rest)))
              in
              match fields with
              | value :: timestamp -> (
                match parse_float value with
                | None -> fail lineno (Printf.sprintf "bad value %S" value)
                | Some v -> (
                  incr n_samples;
                  let base, role = base_of name in
                  let f = family base in
                  f.sampled <- true;
                  (match role with
                   | `Bucket -> (
                     match !le with
                     | None -> fail lineno "histogram bucket without le label"
                     | Some edge -> f.buckets <- (edge, v) :: f.buckets)
                   | `Count -> f.count_v <- Some v
                   | `Sum | `Plain -> ());
                  match timestamp with
                  | [] -> ()
                  | [ ts ] ->
                    if int_of_string_opt ts = None then
                      fail lineno (Printf.sprintf "bad timestamp %S" ts)
                  | _ -> fail lineno "trailing fields after timestamp"))
              | [] -> fail lineno "sample without a value"
            end
          end
        end)
      lines;
    (* histogram invariants: cumulative counts non-decreasing in le, and
       the +Inf bucket equal to _count *)
    if !err = None then
      Hashtbl.iter
        (fun name f ->
          if f.ftype = "histogram" && !err = None then begin
            let buckets =
              List.stable_sort
                (fun (a, _) (b, _) -> compare (a : float) b)
                (List.rev f.buckets)
            in
            let rec mono prev = function
              | [] -> ()
              | (edge, c) :: rest ->
                if c < prev then
                  fail 0
                    (Printf.sprintf
                       "histogram %s: bucket le=%s count %g below previous %g"
                       name (value_repr edge) c prev)
                else mono c rest
            in
            mono 0.0 buckets;
            if f.sampled && f.buckets = [] then
              fail 0 (Printf.sprintf "histogram %s has no buckets" name);
            (match (List.rev buckets, f.count_v) with
             | (edge, last) :: _, Some count when edge = infinity ->
               if last <> count then
                 fail 0
                   (Printf.sprintf
                      "histogram %s: +Inf bucket %g <> count %g" name last
                      count)
             | (edge, _) :: _, _ when edge <> infinity ->
               fail 0
                 (Printf.sprintf "histogram %s lacks a +Inf bucket" name)
             | _ -> ())
          end)
        families;
    match !err with
    | Some msg -> Error msg
    | None ->
      Ok
        (Printf.sprintf "%d sample(s) across %d famil(ies)" !n_samples
           (Hashtbl.length families))
end

(* ------------------------------------------------------------------ *)
(* Global switches *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let now = Unix.gettimeofday
let tracing_flag = Atomic.make false
let trace_epoch = ref 0.0

let set_tracing b =
  if b && !trace_epoch = 0.0 then trace_epoch := now ();
  Atomic.set tracing_flag b

let tracing () = Atomic.get tracing_flag

(* ------------------------------------------------------------------ *)
(* Trace ring buffers *)

(* One buffer per track: a domain's own, and one per chunk index of the
   regions it opens. Events are flat arrays (no per-event allocation
   beyond string interning on first use of a name). Begin events reserve
   room for their matching end — a B is only recorded if both it and its
   eventual E fit — so the buffer can fill up without ever breaking B/E
   balance; skipped pairs are counted in [dropped]. End events pop
   [open_ids]; a skipped begin pushes a -1 sentinel so its end is skipped
   too (ends are LIFO, so sentinels pair up correctly). *)

let trace_capacity = ref 65536
let set_trace_capacity n = trace_capacity := max 256 n

type tbuf = {
  cap : int;
  ts : float array;
  kind : Bytes.t; (* 'B' | 'E' | 'C' *)
  eid : int array; (* interned name id *)
  evalue : float array; (* payload for 'C' events *)
  mutable len : int;
  mutable open_b : int; (* unmatched begins (room reservation) *)
  mutable open_ids : int list; (* open span name ids, innermost first *)
  mutable dropped : int;
  mutable last_ts : float; (* monotonic clamp *)
  mutable names : string array; (* id -> name *)
  mutable n_names : int;
  name_ids : (string, int) Hashtbl.t;
}

let tbuf_create cap =
  {
    cap;
    ts = Array.make cap 0.0;
    kind = Bytes.make cap ' ';
    eid = Array.make cap 0;
    evalue = Array.make cap 0.0;
    len = 0;
    open_b = 0;
    open_ids = [];
    dropped = 0;
    last_ts = 0.0;
    names = Array.make 16 "";
    n_names = 0;
    name_ids = Hashtbl.create 16;
  }

let tbuf_intern b name =
  match Hashtbl.find_opt b.name_ids name with
  | Some id -> id
  | None ->
    let id = b.n_names in
    if id >= Array.length b.names then begin
      let grown = Array.make (2 * Array.length b.names) "" in
      Array.blit b.names 0 grown 0 id;
      b.names <- grown
    end;
    b.names.(id) <- name;
    b.n_names <- id + 1;
    Hashtbl.add b.name_ids name id;
    id

let tbuf_push b k id v =
  let t = now () in
  let t = if t < b.last_ts then b.last_ts else t in
  b.last_ts <- t;
  b.ts.(b.len) <- t;
  Bytes.set b.kind b.len k;
  b.eid.(b.len) <- id;
  b.evalue.(b.len) <- v;
  b.len <- b.len + 1

let tbuf_begin b name =
  if b.len + b.open_b + 2 <= b.cap then begin
    let id = tbuf_intern b name in
    tbuf_push b 'B' id 0.0;
    b.open_b <- b.open_b + 1;
    b.open_ids <- id :: b.open_ids
  end
  else begin
    b.dropped <- b.dropped + 1;
    b.open_ids <- -1 :: b.open_ids
  end

let tbuf_end b =
  match b.open_ids with
  | [] -> () (* unbalanced end: ignore rather than corrupt *)
  | id :: rest ->
    b.open_ids <- rest;
    if id >= 0 then begin
      tbuf_push b 'E' id 0.0;
      b.open_b <- b.open_b - 1
    end
    else b.dropped <- b.dropped + 1

let tbuf_value b name v =
  if b.len + b.open_b + 1 <= b.cap then tbuf_push b 'C' (tbuf_intern b name) v
  else b.dropped <- b.dropped + 1

(* ------------------------------------------------------------------ *)
(* Per-domain stores *)

type stat = { mutable seconds : float; mutable calls : int }

(* [assigned]: a gauge wrote the counter since its store was made, so a
   chunk store's value replaces the caller's at the fold instead of
   adding to it, as the gauge would have overwritten it on the caller. *)
type counter = { mutable value : float; mutable assigned : bool }

type store = {
  spans : (string, stat) Hashtbl.t;
  mutable span_order : string list; (* newest first *)
  counters : (string, counter) Hashtbl.t;
  mutable counter_order : string list;
  hists : (string, Hist.t) Hashtbl.t;
  mutable hist_order : string list;
  mutable stack : string list; (* full paths, innermost first *)
  mutable buf : tbuf option;
  mutable chunk_bufs : tbuf option array; (* chunk i's ring: track i + 1 *)
}

let new_store () =
  {
    spans = Hashtbl.create 64;
    span_order = [];
    counters = Hashtbl.create 64;
    counter_order = [];
    hists = Hashtbl.create 16;
    hist_order = [];
    stack = [];
    buf = None;
    chunk_bufs = [||];
  }

(* The calling domain's store, in domain-local storage: every domain gets
   a store of its own on its first record, and a Par chunk swaps in its
   chunk's store for the chunk's duration. *)
let current : store Domain.DLS.key = Domain.DLS.new_key new_store

let cur () = Domain.DLS.get current

let reset () =
  let st = cur () in
  Hashtbl.reset st.spans;
  Hashtbl.reset st.counters;
  Hashtbl.reset st.hists;
  st.span_order <- [];
  st.counter_order <- [];
  st.hist_order <- [];
  st.stack <- [];
  st.buf <- None;
  st.chunk_bufs <- [||]

let resolve st name =
  match st.stack with [] -> name | prefix :: _ -> prefix ^ "/" ^ name

let stat_for st path =
  match Hashtbl.find_opt st.spans path with
  | Some s -> s
  | None ->
    let s = { seconds = 0.0; calls = 0 } in
    Hashtbl.add st.spans path s;
    st.span_order <- path :: st.span_order;
    s

let counter_for st path =
  match Hashtbl.find_opt st.counters path with
  | Some r -> r
  | None ->
    let c = { value = 0.0; assigned = false } in
    Hashtbl.add st.counters path c;
    st.counter_order <- path :: st.counter_order;
    c

let hist_for st path =
  match Hashtbl.find_opt st.hists path with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add st.hists path h;
    st.hist_order <- path :: st.hist_order;
    h

let buf_of st =
  match st.buf with
  | Some b -> b
  | None ->
    let b = tbuf_create !trace_capacity in
    st.buf <- Some b;
    b

(* ------------------------------------------------------------------ *)
(* Recording entry points *)

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = cur () in
    let path = resolve st name in
    let s = stat_for st path in
    s.calls <- s.calls + 1;
    st.stack <- path :: st.stack;
    (* latch the tracing flag so begin/end stay paired even if it flips
       mid-span *)
    let traced = Atomic.get tracing_flag in
    if traced then tbuf_begin (buf_of st) name;
    let t0 = now () in
    let finish () =
      s.seconds <- s.seconds +. Float.max (now () -. t0) 0.0;
      if traced then tbuf_end (buf_of st);
      match st.stack with
      | _ :: rest -> st.stack <- rest
      | [] -> ()
    in
    match f () with
    | v ->
      finish ();
      v
    | exception exn ->
      finish ();
      raise exn
  end

let record_span name ~seconds ~calls =
  if Atomic.get enabled_flag then begin
    let st = cur () in
    let s = stat_for st (resolve st name) in
    s.seconds <- s.seconds +. Float.max seconds 0.0;
    s.calls <- s.calls + calls
  end

let add_to c v = c.value <- c.value +. v

let assign c v =
  c.value <- v;
  c.assigned <- true

let count name v =
  if Atomic.get enabled_flag then begin
    let st = cur () in
    add_to (counter_for st (resolve st name)) (float_of_int v)
  end

let gauge name v =
  if Atomic.get enabled_flag then begin
    let st = cur () in
    assign (counter_for st (resolve st name)) v
  end

let add_absolute name v =
  if Atomic.get enabled_flag then add_to (counter_for (cur ()) name) v

let gauge_absolute name v =
  if Atomic.get enabled_flag then assign (counter_for (cur ()) name) v

let observe name v =
  if Atomic.get enabled_flag then begin
    let st = cur () in
    Hist.add (hist_for st (resolve st name)) v
  end

let histogram name =
  if not (Atomic.get enabled_flag) then None
  else begin
    let st = cur () in
    Some (hist_for st (resolve st name))
  end

let trace_counter name v =
  if Atomic.get enabled_flag && Atomic.get tracing_flag then
    tbuf_value (buf_of (cur ())) name v

(* ------------------------------------------------------------------ *)
(* Parallel regions *)

type region = { parent : store; chunks : store array }

let fork n =
  let parent = cur () in
  let have = Array.length parent.chunk_bufs in
  if have < n then
    parent.chunk_bufs <-
      Array.append parent.chunk_bufs (Array.make (n - have) None);
  let stack = match parent.stack with [] -> [] | prefix :: _ -> [ prefix ] in
  {
    parent;
    chunks =
      Array.init n (fun i ->
          { (new_store ()) with stack; buf = parent.chunk_bufs.(i) });
  }

let in_chunk r i f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current r.chunks.(i);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f

(* Each chunk's paths in its own first-seen order, chunk after chunk: the
   caller ends up with the order and the values one domain running every
   chunk in turn would have given it, a gauge's last write included. *)
let fold_into dst src =
  List.iter
    (fun path ->
      let s = Hashtbl.find src.spans path and d = stat_for dst path in
      d.seconds <- d.seconds +. s.seconds;
      d.calls <- d.calls + s.calls)
    (List.rev src.span_order);
  List.iter
    (fun path ->
      let s = Hashtbl.find src.counters path and d = counter_for dst path in
      if s.assigned then assign d s.value else add_to d s.value)
    (List.rev src.counter_order);
  List.iter
    (fun path -> Hist.absorb (hist_for dst path) (Hashtbl.find src.hists path))
    (List.rev src.hist_order)

let join r =
  Array.iteri
    (fun i st ->
      fold_into r.parent st;
      r.parent.chunk_bufs.(i) <- st.buf)
    r.chunks

(* ------------------------------------------------------------------ *)
(* Records *)

type span_stat = { path : string; seconds : float; calls : int }

type record = {
  meta : (string * Json.t) list;
  spans : span_stat list;
  counters : (string * float) list;
  hists : (string * Hist.t) list;
}

let capture ?(meta = []) () =
  let st = cur () in
  {
    meta;
    spans =
      List.rev_map
        (fun path ->
          let s = Hashtbl.find st.spans path in
          { path; seconds = s.seconds; calls = s.calls })
        st.span_order;
    counters =
      List.rev_map
        (fun path -> (path, (Hashtbl.find st.counters path).value))
        st.counter_order;
    hists =
      List.rev_map
        (fun path -> (path, Hist.copy (Hashtbl.find st.hists path)))
        st.hist_order;
  }

let record_to_json r =
  Json.Obj
    [
      ("schema", Json.Str "powerrchol-telemetry/v2");
      ("meta", Json.Obj r.meta);
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("path", Json.Str s.path);
                   ("seconds", Json.Float s.seconds);
                   ("calls", Json.Int s.calls);
                 ])
             r.spans) );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.counters) );
      ("hists", Json.Obj (List.map (fun (k, h) -> (k, Hist.to_json h)) r.hists));
    ]

let meta_value_to_string = function
  | Json.Str s -> s
  | v -> Json.to_string v

let record_to_text r =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "telemetry\n";
  List.iter
    (fun (k, v) -> add "  %-18s %s\n" k (meta_value_to_string v))
    r.meta;
  if r.spans <> [] then begin
    add "spans\n";
    let width =
      List.fold_left (fun w s -> max w (String.length s.path)) 0 r.spans
    in
    List.iter
      (fun s ->
        let depth =
          String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 s.path
        in
        add "  %s%-*s %10.6f s  (%d call%s)\n"
          (String.make (2 * depth) ' ')
          (max 1 (width - (2 * depth)))
          s.path s.seconds s.calls
          (if s.calls = 1 then "" else "s"))
      r.spans
  end;
  if r.counters <> [] then begin
    add "counters\n";
    let width =
      List.fold_left (fun w (k, _) -> max w (String.length k)) 0 r.counters
    in
    List.iter
      (fun (k, v) ->
        if Float.is_integer v && Float.abs v < 1e15 then
          add "  %-*s %d\n" width k (int_of_float v)
        else add "  %-*s %g\n" width k v)
      r.counters
  end;
  let shown = List.filter (fun (_, h) -> Hist.count h > 0) r.hists in
  if shown <> [] then begin
    add "histograms\n";
    let width =
      List.fold_left (fun w (k, _) -> max w (String.length k)) 0 shown
    in
    List.iter
      (fun (k, h) ->
        add "  %-*s n=%-6d p50=%-12.6g p95=%-12.6g p99=%-12.6g max=%g\n" width
          k (Hist.count h) (Hist.percentile h 50.0) (Hist.percentile h 95.0)
          (Hist.percentile h 99.0) (Hist.max_value h))
      shown
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Trace export *)

module Trace = struct
  type event = {
    track : int;
    name : string;
    phase : char;
    ts : float;
    value : float;
  }

  let set_capacity = set_trace_capacity

  (* The calling domain's ring as track 0, then its chunks' rings, chunk
     i as track i + 1. *)
  let rings () =
    let st = cur () in
    let chunks =
      List.filter_map Fun.id
        (List.mapi
           (fun i b -> Option.map (fun b -> (i + 1, b)) b)
           (Array.to_list st.chunk_bufs))
    in
    match st.buf with Some b -> (0, b) :: chunks | None -> chunks

  let events_of (track, b) =
    let acc = ref [] in
    for i = b.len - 1 downto 0 do
      acc :=
        {
          track;
          name = b.names.(b.eid.(i));
          phase = Bytes.get b.kind i;
          ts = b.ts.(i);
          value = b.evalue.(i);
        }
        :: !acc
    done;
    !acc

  let events () = List.concat_map events_of (rings ())

  let dropped () =
    List.fold_left (fun acc (_, b) -> acc + b.dropped) 0 (rings ())

  let track_label t = if t = 0 then "main" else Printf.sprintf "domain%d" (t - 1)

  let to_json () =
    let epoch = !trace_epoch in
    let us t = (t -. epoch) *. 1e6 in
    let rings = rings () in
    let meta_events =
      Json.Obj
        [
          ("name", Json.Str "process_name");
          ("ph", Json.Str "M");
          ("pid", Json.Int 1);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.Str "powerrchol") ]);
        ]
      :: List.map
           (fun (track, _) ->
             Json.Obj
               [
                 ("name", Json.Str "thread_name");
                 ("ph", Json.Str "M");
                 ("pid", Json.Int 1);
                 ("tid", Json.Int track);
                 ("args", Json.Obj [ ("name", Json.Str (track_label track)) ]);
               ])
           rings
    in
    let event_json ev =
      let base =
        [
          ("name", Json.Str ev.name);
          ("ph", Json.Str (String.make 1 ev.phase));
          ("ts", Json.Float (us ev.ts));
          ("pid", Json.Int 1);
          ("tid", Json.Int ev.track);
        ]
      in
      Json.Obj
        (if ev.phase = 'C' then
           base @ [ ("args", Json.Obj [ ("value", Json.Float ev.value) ]) ]
         else base)
    in
    let evs = List.concat_map (fun r -> List.map event_json (events_of r)) rings in
    Json.Obj
      [
        ("schema", Json.Str "powerrchol-trace/v1");
        ("displayTimeUnit", Json.Str "ms");
        ("dropped", Json.Int (dropped ()));
        ("traceEvents", Json.List (meta_events @ evs));
      ]

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string (to_json ()));
        output_char oc '\n')

  let validate j =
    match Json.member "traceEvents" j with
    | Some (Json.List evs) -> (
      let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
      let last_ts : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
      let n_events = ref 0 in
      let err = ref None in
      let fail msg = if !err = None then err := Some msg in
      let get tbl mk tid =
        match Hashtbl.find_opt tbl tid with
        | Some r -> r
        | None ->
          let r = mk () in
          Hashtbl.add tbl tid r;
          r
      in
      List.iteri
        (fun i ev ->
          if !err = None then begin
            let ph =
              match Json.member "ph" ev with Some (Json.Str p) -> p | _ -> ""
            in
            let tid =
              match Json.member "tid" ev with Some (Json.Int t) -> t | _ -> 0
            in
            let name =
              match Json.member "name" ev with
              | Some (Json.Str s) -> Some s
              | _ -> None
            in
            let check_ts () =
              match Option.bind (Json.member "ts" ev) Json.to_float with
              | None -> fail (Printf.sprintf "event %d: missing ts" i)
              | Some t ->
                let last = get last_ts (fun () -> ref neg_infinity) tid in
                if t < !last then
                  fail
                    (Printf.sprintf
                       "event %d: non-monotonic ts on track %d (%g < %g)" i tid
                       t !last)
                else last := t
            in
            match ph with
            | "M" -> ()
            | "B" -> (
              check_ts ();
              incr n_events;
              match name with
              | None -> fail (Printf.sprintf "event %d: B without name" i)
              | Some nm ->
                let st = get stacks (fun () -> ref []) tid in
                st := nm :: !st)
            | "E" -> (
              check_ts ();
              incr n_events;
              let st = get stacks (fun () -> ref []) tid in
              match !st with
              | [] ->
                fail (Printf.sprintf "event %d: E without open B on track %d" i tid)
              | top :: rest -> (
                st := rest;
                match name with
                | Some nm when nm <> top ->
                  fail
                    (Printf.sprintf
                       "event %d: E name %S does not match open B %S" i nm top)
                | _ -> ()))
            | "C" | "i" | "I" ->
              check_ts ();
              incr n_events
            | p -> fail (Printf.sprintf "event %d: unexpected phase %S" i p)
          end)
        evs;
      (match !err with
       | None ->
         Hashtbl.iter
           (fun tid st ->
             match !st with
             | [] -> ()
             | top :: _ ->
               fail
                 (Printf.sprintf "track %d: unbalanced B %S at end of trace" tid
                    top))
           stacks
       | Some _ -> ());
      match !err with
      | Some msg -> Error msg
      | None ->
        Ok
          (Printf.sprintf "%d events on %d track(s)" !n_events
             (Hashtbl.length last_ts)))
    | _ -> Error "trace: missing \"traceEvents\" list"
end
