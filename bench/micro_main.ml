(* Flat-kernel microbench driver.

   Run with:  dune exec bench/micro_main.exe            # timed F1-F3, E1-E2
          or  dune exec bench/micro_main.exe -- --smoke # fast agreement pass
   The timed run prints Bechamel ns/run estimates for the Tree.Flat
   primitives (path folds, batched LCA, Steiner scans with a reused and a
   fresh scratch), then for the discrete-event engine kernels
   (pairing-heap churn, tick chains). [--smoke] skips timing and instead
   cross-checks the flat kernels against each other and the pairing heap
   against a stable sort on the bench instances — the cheap gate
   `make bench-quick` (and through it `make check`) runs. *)

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then begin
    Micro.smoke_flat ();
    Micro.smoke_event ()
  end
  else begin
    Micro.run_flat ();
    Micro.run_event ()
  end
