(** The ptlcall command-list language (paper §4.1): the strings the guest
    passes through the ptlcall opcode (or [ptlctl] wrapper) to direct the
    simulator, e.g. "-core smt -run -stopinsns 10m : -native". *)

type stop_condition =
  | Stop_insns of int
  | Stop_cycles of int
  | Stop_rip of int64
  | Stop_marker of int

type command =
  | Set_core of string
  | Run of stop_condition list
  | Native
  | Snapshot
  | Kill
  | Flush_stats
  | Sample_start  (** [-startsample]: enter the sampling region of interest *)
  | Sample_stop  (** [-stopsample]: leave the sampling region of interest *)

exception Parse_error of string

(** Parse a command list; phases separated by ":". Raises
    [Parse_error]. *)
val parse : string -> command list

val command_to_string : command -> string
