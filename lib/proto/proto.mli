(** Wire protocol shared by the [pgserve] daemon, the [pgclient] CLI, the
    load-generator bench, and the fault-injection tests.

    Two layers:

    {b Framing.} Every message is one frame: a 4-byte big-endian length
    prefix followed by that many bytes of UTF-8 JSON. {!read_frame} and
    {!write_frame} are EINTR-safe, handle partial reads/writes, enforce a
    maximum frame size (a garbage or hostile header can never trigger an
    unbounded allocation), and honor an absolute wall-clock deadline so a
    stalled peer can never wedge the calling thread. Every failure mode is
    a typed {!io_error} — the daemon turns each into a metric and a typed
    response or a clean connection close, never a crash.

    {b Messages.} A small request/response vocabulary ({!request},
    {!response}) with total JSON (de)serializers. Decoding is defensive:
    unknown operations, missing fields, and type mismatches come back as
    [Error reason], which the daemon answers with a typed
    [Rejected "bad-request: ..."] frame.

    The solver-name table ({!solver_names}) lives here so the CLI
    ([pgsolve --solver]), the daemon, and the client agree on one
    vocabulary. *)

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** filesystem path of a Unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** Parses ["unix:/path/to.sock"] and ["tcp:host:port"]. A bare path
    containing ['/'] is accepted as a Unix socket path. Port [0] is
    accepted (bind an ephemeral port — used by the metrics listener). *)

val addr_to_string : addr -> string
(** Inverse of {!addr_of_string} (canonical [unix:]/[tcp:] form). *)

(** {1 Solver tags} *)

type solver =
  | Powerrchol
  | Rchol
  | Lt_rchol
  | Fegrass
  | Fegrass_ichol
  | Amg
  | Direct

val solver_names : (string * solver) list
(** The canonical name table, e.g. [("powerrchol", Powerrchol)] — the CLI
    builds its [--solver] enum from this and the daemon resolves request
    solver fields against it. *)

val solver_to_string : solver -> string
val solver_of_string : string -> (solver, string) result

(** {1 Requests} *)

type problem_spec =
  | Case of { id : string; scale : float }
      (** a named benchmark-suite case, built server-side *)
  | Mtx of { path : string }
      (** a MatrixMarket file loaded server-side (trusted paths only) *)

type request =
  | Solve of {
      spec : problem_spec;
      solver : solver;
      rtol : float;
      seed : int;
      deadline_ms : float option;
          (** per-request budget, measured from server-side admission;
              propagated as cooperative cancellation into the PCG loop *)
      robust : bool;  (** route through the hardened fallback chain *)
      want_x : bool;  (** include the full solution vector in the reply *)
    }
  | Update of {
      spec : problem_spec;
      edits : Sddm.Edit.t list;  (** applied as one batch, in order *)
      rtol : float;
      seed : int;
      deadline_ms : float option;
      want_x : bool;
    }
      (** incremental re-solve (ECO flow): the daemon opens — or reuses —
          a versioned {!Engine.Session} for [(spec, seed)], applies the
          edits through the cheapest update rung, and solves the edited
          system. An empty edit list re-solves the session's current
          state. *)
  | Diagnose of { spec : problem_spec }
  | Health  (** metrics snapshot: counters, latency percentiles, cache *)
  | Ping
  | Shutdown  (** ask the daemon to drain and exit (when enabled) *)

val solve :
  ?solver:solver -> ?rtol:float -> ?seed:int -> ?deadline_ms:float ->
  ?robust:bool -> ?want_x:bool -> problem_spec -> request
(** Request constructor with the daemon's defaults ([powerrchol], 1e-6,
    seed 42, no deadline). *)

val update :
  ?rtol:float -> ?seed:int -> ?deadline_ms:float -> ?want_x:bool ->
  edits:Sddm.Edit.t list -> problem_spec -> request
(** {!Update} constructor with the same defaults as {!solve}. *)

(** {1 Responses}

    Every admitted request ends in exactly one of these; the daemon never
    answers a well-framed request with silence. *)

type response =
  | Solved of {
      solver : string;
      iterations : int;
      residual : float;  (** true relative residual, recomputed *)
      status : string;  (** typed PCG/robust exit status, rendered *)
      converged : bool;
      t_solve_ms : float;  (** server-side service time *)
      cache_hit : bool;  (** the Engine served a prepared factorization *)
      x : float array option;  (** present iff the request set [want_x] *)
    }
  | Updated of {
      session : int;
          (** the session's number: a daemon numbers the sessions it
              opens 1, 2, ...; one session keeps its number across
              updates *)
      version : int;  (** session version after the update *)
      rung : string;
          (** update rung taken: [rhs-only] / [local] / [full] *)
      iterations : int;
      residual : float;  (** true relative residual of the re-solve *)
      converged : bool;
      t_update_ms : float;  (** server-side edit + revalidation time *)
      t_solve_ms : float;  (** server-side PCG time *)
      x : float array option;
    }
  | Diagnosed of { fatal : bool; issues : string list }
  | Health_report of Obs.Json.t  (** free-form metrics document *)
  | Pong
  | Rejected of { reason : string }
      (** admission control (overload / shutting down) or a malformed
          request; the work was {e not} attempted *)
  | Timed_out of { elapsed_ms : float }
      (** the per-request deadline expired (queued or mid-iteration) *)
  | Failed of { reason : string }
      (** the work was attempted and ended in a typed failure *)
  | Bye  (** acknowledgment of [Shutdown] *)

val response_ok : response -> bool
(** True for [Solved] with [converged], [Diagnosed] without fatal issues,
    [Health_report], [Pong], and [Bye]. *)

(** {1 JSON codecs} *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result

val request_to_string : request -> string
val request_of_string : string -> (request, string) result
val response_to_string : response -> string
val response_of_string : string -> (response, string) result

(** {1 Framing} *)

val default_max_frame : int
(** 16 MiB: large enough for a solution vector on any suite case, small
    enough that a hostile length header cannot exhaust memory. *)

val header_bytes : int
(** Size of the length prefix (4). *)

val encode_header : int -> string
(** The 4-byte big-endian length prefix for a payload of the given length.
    Exposed so the fault injectors can forge truncated/oversized frames. *)

type io_error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated of { got : int; expected : int }
      (** the peer vanished mid-frame: header promised [expected] payload
          bytes but the stream ended after [got] *)
  | Oversized of { declared : int; limit : int }
      (** header declares a payload beyond [max_frame] (or negative);
          nothing was allocated *)
  | Deadline  (** the read/write deadline expired *)
  | Io of string  (** any other socket-level error (EPIPE, ECONNRESET, …) *)

val io_error_to_string : io_error -> string

val read_frame :
  ?deadline:float -> ?max_frame:int -> Unix.file_descr ->
  (string, io_error) result
(** Read one complete frame. [deadline] is an {e absolute}
    [Unix.gettimeofday] instant; omitted means wait indefinitely. Interrupted
    syscalls are retried; partial reads are accumulated until the frame
    completes, the deadline passes, or the peer closes. *)

val write_frame :
  ?deadline:float -> Unix.file_descr -> string -> (unit, io_error) result
(** Write one complete frame (header + payload), honoring partial writes
    and the absolute [deadline] — a stalled reader yields [Error Deadline],
    a vanished one [Error (Io _)], never SIGPIPE (the caller must have
    ignored it; both daemons do). *)
