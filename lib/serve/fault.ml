(* Connection-level fault injectors for the pgserve framed protocol.

   These act on an open socket to a framed-protocol peer and reproduce,
   deterministically, the ways real clients die: mid-frame disconnects,
   stalled writes, garbage payloads, hostile length headers. All writes
   are best-effort — the peer closing first (EPIPE/ECONNRESET) is an
   acceptable outcome of injecting a fault, never an injector error. *)

let write_best_effort fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | 0 -> ()
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let send_garbage_frame fd =
  (* well-framed, but the payload is not JSON: must come back as a typed
     bad-request rejection, not a crash *)
  let payload = "\x00\xffnot json at all{{{" in
  write_best_effort fd (Proto.encode_header (String.length payload));
  write_best_effort fd payload

let send_truncated_frame ?(fraction = 0.5) fd payload =
  (* the header promises the full payload; only a prefix ever arrives *)
  let len = String.length payload in
  let sent = max 0 (min len (int_of_float (float_of_int len *. fraction))) in
  write_best_effort fd (Proto.encode_header len);
  write_best_effort fd (String.sub payload 0 sent)

let disconnect_mid_request fd payload =
  send_truncated_frame ~fraction:0.5 fd payload;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let send_oversized_header ?(declared = max_int) fd =
  (* 4-byte big-endian header declaring an absurd length; a robust peer
     must reject it before allocating anything *)
  let declared = declared land 0x7fffffff in
  write_best_effort fd (Proto.encode_header declared)

let send_stalled_frame ?(stall = 0.5) ?(chunk = 1) fd payload =
  (* drip-feed a valid frame byte by byte with pauses: exercises the
     peer's partial-read accumulation and its per-frame deadline *)
  let frame = Proto.encode_header (String.length payload) ^ payload in
  let len = String.length frame in
  let chunk = max 1 chunk in
  let rec go off =
    if off < len then begin
      write_best_effort fd (String.sub frame off (min chunk (len - off)));
      if off + chunk < len then Unix.sleepf stall;
      go (off + chunk)
    end
  in
  go 0
