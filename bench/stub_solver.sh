#!/bin/sh
# Stand-in for an SMT solver in the export_campaign workload.
#
#     sh stub_solver.sh PIDDIR FILE
#
# The verdict depends only on the last digits of FILE's name (the problem
# id), so it is the same on every run, and every harness verdict occurs:
#   *99  timeout     the prover child sleeps past the harness timeout
#   *8   error       no verdict line, nonzero exit
#   *7   unknown
#   *6   countersat  (prints "sat")
#   else proved      (prints "unsat")
# Like a wrapper script around a real prover, the timeout case runs the
# prover as a foreground child.  Killing this shell does not kill that
# child; it records its pid in PIDDIR, in a file named after the pid, so
# the benchmark can count the children still alive and then stop them.

piddir=$1
case ${2##*/} in
  *99.smt2)
    sh -c 'echo $$ > "$1/$$"; exec sleep 5' prover "$piddir"
    echo unsat ;;
  *8.smt2)
    echo "stub: prover crashed" >&2
    exit 3 ;;
  *7.smt2) echo unknown ;;
  *6.smt2) echo sat ;;
  *) echo unsat ;;
esac
