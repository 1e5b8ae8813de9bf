(** Connection-level fault injectors for the pgserve framed protocol.

    Each reproduces one way a real client dies on the wire. All are
    deterministic and best-effort — the peer closing the socket
    mid-injection (EPIPE/ECONNRESET) is an acceptable outcome, never an
    injector error. The daemon under test must answer each with a typed
    rejection or a clean connection close, and keep serving other
    clients. *)

val send_garbage_frame : Unix.file_descr -> unit
(** A well-framed payload that is not JSON: the peer must reply with a
    typed bad-request rejection. *)

val send_truncated_frame : ?fraction:float -> Unix.file_descr -> string -> unit
(** Write a header promising the full [payload] but only [fraction]
    (default 0.5) of its bytes — the peer sees a torn frame. *)

val disconnect_mid_request : Unix.file_descr -> string -> unit
(** {!send_truncated_frame} then shutdown+close: the classic client crash
    halfway through a request. The descriptor is consumed. *)

val send_oversized_header : ?declared:int -> Unix.file_descr -> unit
(** A 4-byte header declaring an absurd frame length (default the largest
    31-bit value): the peer must reject it before allocating anything. *)

val send_stalled_frame :
  ?stall:float -> ?chunk:int -> Unix.file_descr -> string -> unit
(** Drip-feed one valid frame in [chunk]-byte pieces (default 1) with a
    [stall]-second pause (default 0.5) between pieces: exercises the
    peer's partial-read accumulation and its per-frame deadline. *)
