(** The four query-set clients, by command-line key: [ptsto client -c]
    and the serve daemon's [query] op both read this one table, so the
    two answer from identical query lists (their byte-identity is
    checked end to end). *)

val all : (string * (string * (Pipeline.t -> Client.query list))) list
(** [(key, (display name, query builder))], in presentation order. *)
