#!/bin/sh
# Run one golden case and print what it wrote (stdout, then stderr
# merged in), followed by its exit code on a line of its own. The
# backtrace setting is cleared so an uncaught exception prints the
# same bytes in every environment.
unset OCAMLRUNPARAM
"$@" 2>&1
printf '\n[exit %d]\n' "$?"
