#!/usr/bin/env bash
# Byte-compare the outputs of two source checkouts on the benchmark workloads.
#
#   tools/compare_outputs.sh PARENT CHANGE WORK
#
# PARENT and CHANGE are source checkouts (each with src/mvtrace); WORK is a
# scratch directory, emptied first.  For each workload in perfbench's
# workloads.WORKLOADS and each cohort seed 11 and 12, the configs come from
# the benchmark's own Bench.write_configs (read from CHANGE, nothing written
# under perfbench/).  Each side generates the cohort and runs every command the
# workload has (run or sweep, and the raw workload's check run) with one BLAS
# thread and the same --out.  After comparing a run or check output, each side
# rewrites its significance files with "mvtrace map --results" on its own
# output, and those are compared again (one more report line per output).
# Then each side runs the mdae_cv run twice more, once with --jobs 2 (fold
# worker processes) and once with two BLAS threads, and the raw_alpha_path
# sweep once more with --jobs 2 (a penalty path in each worker), and each pair
# is compared the same way (one report line each).  Each side also runs the
# mdae_cv config with arch "pca", with output_activation "sigmoid" (min-max
# targets), and with arch "monomodal-task" and "monomodal-rest" (one block
# over one view), one report line each.  Last, each side generates four
# more cohorts at the same seed, on generator branches that no workload reaches
# (rest-view nuisance on, cluster_coherence 0, a grid mesh, one subject), and
# those are compared too (one report line each).
# Prints "DIFF <file>" for a file whose bytes differ, "FILESET <dir>" for a
# directory whose file lists differ and "FAIL <dir>" for a command that exited
# nonzero; every generated cohort file is compared except its manifest.json.
# The report is also kept in WORK/report.txt.  Exits 1 if it printed any of
# those lines or a cohort could not be generated, 2 on bad arguments, and 0
# when every output matches.
set -u

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT CHANGE WORK" >&2
    exit 2
fi
P=$(cd "$1" && pwd) || exit 2
C=$(cd "$2" && pwd) || exit 2
W=$3

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONDONTWRITEBYTECODE=1 MVTRACE_LOG=error

mvtrace() {  # mvtrace SIDE ARGS...: the program of one checkout
    local side=$1
    shift
    PYTHONPATH="$side/src" python3 -m mvtrace "$@"
}

# compare two directories file by file, recursively
compare() {
    local a=$1 b=$2 skip=${3:-}
    diff <(cd "$a" && find . -type f ! -name "$skip" | sort) \
         <(cd "$b" && find . -type f ! -name "$skip" | sort) >/dev/null \
        || echo "FILESET $a"
    (cd "$a" && find . -type f ! -name "$skip") | while read -r f; do
        [ -f "$b/$f" ] && { cmp -s "$a/$f" "$b/$f" || echo "DIFF $a/${f#./}"; }
    done
}

compare_all() {
    for s in 11 12; do
        # write every workload's configs to $W/<workload>-$s and print the names
        names=$(python3 -c "
import sys
from pathlib import Path
sys.path.insert(0, '$C/perfbench')
import run, workloads
for name, wl in workloads.WORKLOADS.items():
    d = Path('$W') / f'{name}-$s'
    d.mkdir()
    run.Bench(name, wl, $s, d).write_configs()
    print(name)
") || exit 1
        for w in $names; do
            d=$W/$w-$s
            # the change's cohort sits where the configs point; the parent's beside it
            mvtrace "$C" generate --config "$d/generate.json" >/dev/null || exit 1
            mvtrace "$P" generate --config "$d/generate.json" --out "$d/cohort-P" >/dev/null || exit 1
            compare "$d/cohort-P" "$d/cohort" manifest.json
            for c in run sweep check; do
                [ -f "$d/$c.json" ] || continue
                cmd=$c
                [ "$c" = check ] && cmd=run
                for side in P C; do
                    rm -rf "$W/out"
                    mvtrace "${!side}" "$cmd" --config "$d/$c.json" --out "$W/out" >/dev/null 2>&1 \
                        || echo "FAIL $d/$c-$side"
                    mkdir -p "$W/out"  # a run that failed early made none
                    mv "$W/out" "$d/$c-$side"
                done
                compare "$d/$c-P" "$d/$c-C"
                echo "$w seed $s $c: $(ls "$d/$c-P" | wc -l) files"
                [ "$cmd" = run ] || continue
                for side in P C; do
                    mvtrace "${!side}" map --results "$d/$c-$side" >/dev/null 2>&1 \
                        || echo "FAIL $d/$c-$side map"
                done
                for f in significance.csv significance_t.mvrl; do
                    cmp -s "$d/$c-P/$f" "$d/$c-C/$f" || echo "DIFF $d/$c-P/$f (map)"
                done
                echo "$w seed $s $c map: $(ls "$d/$c-P"/beta_fold*.mvrl 2>/dev/null | wc -l) fold maps"
            done
        done
        d=$W/mdae_cv-$s
        for leg in jobs2 blas2; do
            for side in P C; do
                rm -rf "$W/out"
                if [ "$leg" = jobs2 ]; then
                    mvtrace "${!side}" run --config "$d/run.json" --out "$W/out" --jobs 2
                else
                    OPENBLAS_NUM_THREADS=2 mvtrace "${!side}" run --config "$d/run.json" --out "$W/out"
                fi >/dev/null 2>&1 || echo "FAIL $d/$leg-$side"
                mkdir -p "$W/out"
                mv "$W/out" "$d/$leg-$side"
            done
            compare "$d/$leg-P" "$d/$leg-C"
            echo "mdae_cv seed $s run $leg: $(ls "$d/$leg-P" | wc -l) files"
        done
        # the same cohort through the PCA baseline, an mdae with min-max
        # targets (sigmoid output) and the two one-view autoencoders, paths no
        # workload reaches
        for leg in pca sigmoid monomodal-task monomodal-rest; do
            python3 -c "
import json, sys
cfg = json.load(open('$d/run.json'))
cfg.update({'output_activation': 'sigmoid'} if '$leg' == 'sigmoid' else {'arch': '$leg'})
json.dump(cfg, open('$d/$leg.json', 'w'))
" || exit 1
            for side in P C; do
                rm -rf "$W/out"
                mvtrace "${!side}" run --config "$d/$leg.json" --out "$W/out" >/dev/null 2>&1 \
                    || echo "FAIL $d/$leg-$side"
                mkdir -p "$W/out"
                mv "$W/out" "$d/$leg-$side"
            done
            compare "$d/$leg-P" "$d/$leg-C"
            echo "mdae_cv seed $s run $leg: $(ls "$d/$leg-P" | wc -l) files"
        done
        d=$W/raw_alpha_path-$s
        for side in P C; do
            rm -rf "$W/out"
            mvtrace "${!side}" sweep --config "$d/sweep.json" --out "$W/out" --jobs 2 \
                >/dev/null 2>&1 || echo "FAIL $d/jobs2-$side"
            mkdir -p "$W/out"
            mv "$W/out" "$d/jobs2-$side"
        done
        compare "$d/jobs2-P" "$d/jobs2-C"
        echo "raw_alpha_path seed $s sweep jobs2: $(ls "$d/jobs2-P" | wc -l) files"
        for branch in nuisance coherence0 grid one_subject; do
            case $branch in
                nuisance) fields='"rest_nuisance_dim": 3, "rest_nuisance_scale": 3' ;;
                coherence0) fields='"cluster_coherence": 0' ;;
                grid) fields='"mesh": "grid-9x11"' ;;
                one_subject) fields='"n_subjects": 1' ;;
            esac
            d=$W/generate-$branch-$s
            mkdir "$d"
            echo "{$fields, \"seed\": $s}" > "$d/generate.json"
            for side in P C; do
                mvtrace "${!side}" generate --config "$d/generate.json" --out "$d/cohort-$side" \
                    >/dev/null || exit 1
            done
            compare "$d/cohort-P" "$d/cohort-C" manifest.json
            echo "generate $branch seed $s: $(ls "$d/cohort-P" | wc -l) files"
        done
    done
}

rm -rf "$W"
mkdir -p "$W"
W=$(cd "$W" && pwd)
# compare's loop runs in a subshell, so mismatches are counted in the report
compare_all | tee "$W/report.txt"
status=${PIPESTATUS[0]}
[ "$status" -eq 0 ] || exit "$status"
! grep -qE '^(DIFF|FILESET|FAIL) ' "$W/report.txt"
