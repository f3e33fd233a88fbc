(* Flat-kernel microbench driver.

   Run with:  dune exec bench/micro_main.exe            # timed F1-F7
          or  dune exec bench/micro_main.exe -- --smoke # fast agreement pass
   The timed run prints Bechamel ns/run estimates for the Tree.Flat
   primitives (path folds, batched LCA, Steiner scans with a reused and a
   fresh scratch, next hops, nearest-copy sweeps, a load build by walks
   and by endpoint differences) and for the deletion pass on the
   place-deep inputs. [--smoke] skips timing and instead cross-checks the
   flat kernels against each other on the bench instances, checks F7's
   outcomes against the n-table deletion oracle, and checks that B5's
   two rows (the simulator's merge and the reference scan) return the
   same outcome, printing what F7's pass and one B5 [Sim.run] allocate —
   the cheap gate `dune runtest` runs (see bench/dune). *)

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then begin
    Micro.smoke_flat ();
    Micro.smoke_deletion ();
    Micro.smoke_sim ()
  end
  else Micro.run_flat ()
