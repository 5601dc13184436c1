#!/usr/bin/env bash
# README quick-start (also with --exclude-same-annotator and --de-samples all), spans and
# boxes examples, a permutation KS p-value above its floor, `box_giou` on boxes at the
# float limit, far span offsets, `levenshtein` and `ted` on small token and tree files, and
# a rejection-sampled vector compute through the installed `agree` script, with the printed
# rows pinned, the exit code and error line of a too-wide span, of boxes whose corners
# are out of order, of a tree 500 levels deep (490 levels compute and pass `check-metric`),
# of a byte that is not UTF-8 on line 4, of a ranking that repeats an element, of a vector
# holding 1e999, of a malformed `--param` with a missing input, of `box_l2` with
# `l2_scale=true`, of expected `euclidean` distances above their upper bound and of a NaN
# `check-metric --tolerance`, plus
# `check-metric` on the simulated ranking, vector, boxes and spans inputs. Run from anywhere after
# `pip install -e .`; it works in a fresh temporary directory, removed on exit, and exits
# non-zero on the first command or grep that fails.
set -euo pipefail
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"

agree simulate --task ranking --items 30 --annotators 3 --noise 0.25 --seed 7 --out demo.jsonl
agree compute --input demo.jsonl --distance tau --seed 7 | tee compute.txt
grep -F "alpha      : 0.7430" compute.txt
agree compare --input demo.jsonl --distances tau,rho,tau_at_k --param k=3 --seed 7 \
  | tee compare.txt
grep -F "1     rho                   0.8798" compare.txt
agree compare --input demo.jsonl --distances tau,rho,tau_at_k --param k=3 --seed 7 \
  --exact-ks 200 | tee exact.txt
grep -F "3     tau_at_k              0.5349   0.6556   0.6911      0.9950" exact.txt
# the same-annotator exclusion path
agree compute --input demo.jsonl --distance tau --seed 7 --exclude-same-annotator \
  | tee exclude.txt
grep -F "alpha      : 0.7441" exclude.txt
grep -F "pairs      : observed=90 expected_used=900 expected_available=2610" exclude.txt
# every cross-item pair: --de-samples all takes all the plan has, whatever their number
agree compute --input demo.jsonl --distance tau --seed 7 --de-samples all | tee all.txt
grep -F "alpha      : 0.7432" all.txt
grep -F "pairs      : observed=90 expected_used=3915 expected_available=3915" all.txt

# spans rows pinned to the set-based NER definition
agree simulate --task spans --items 30 --annotators 3 --noise 0.25 --seed 7 --out spans.jsonl
agree compare --input spans.jsonl \
  --distances ner_both_lenient,ner_strict_tag,ner_strict_range,ner_both_strict,count_diff \
  --seed 7 | tee spans.txt
grep -F "1     ner_strict_tag        0.4561   0.7333   0.6900      1.0000" spans.txt
grep -F "2     ner_strict_range      0.4831   0.7000   0.6689      1.0000" spans.txt
grep -F "3     ner_both_lenient      0.6091   0.6556   0.7189      1.0000" spans.txt
grep -F "4     ner_both_strict       0.3477   0.5556   0.5500      1.0000" spans.txt
grep -F "5     count_diff            0.2884   0.4667   0.1844      0.9962" spans.txt
# a permutation p-value above the 1/(N + 1) floor: 3 of 2,000 permutations reach the statistic
agree compute --input spans.jsonl --distance count_diff --seed 7 --exact-ks 2000 | tee exact-spans.txt
grep -Fx "ks         : stat=0.1844 p=0.001999 measure=0.9980" exact-spans.txt
# far span offsets: 2-token spans 10^10 tokens in are scored in int64, with no token bitmask
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "spans", "label": [[10000000000, 10000000002, "X"]]}' \
  '{"item": "i0", "annotator": "a1", "kind": "spans", "label": [[10000000001, 10000000003, "X"]]}' \
  '{"item": "i1", "annotator": "a0", "kind": "spans", "label": [[0, 2, "X"]]}' \
  '{"item": "i1", "annotator": "a1", "kind": "spans", "label": [[0, 2, "X"]]}' > far.jsonl
agree compute --input far.jsonl --distance ner_both_lenient | tee far.txt
grep -F "alpha      : 0.7500" far.txt
# a span 2^31 tokens wide is a data error (exit 3) at load
head -n 3 far.jsonl > wide.jsonl
printf '%s\n' '{"item": "i1", "annotator": "a1", "kind": "spans", "label": [[0, 2147483648, "X"]]}' \
  >> wide.jsonl
code=0
agree compute --input wide.jsonl --distance ner_both_lenient 2> wide.txt || code=$?
cat wide.txt
test "$code" -eq 3
grep -F "wide.jsonl:4: span [0, 2147483648) must end below 2**63 and be under 2**31 tokens wide" \
  wide.txt

# boxes rows pinned to the min-match lift
agree simulate --task boxes --items 30 --annotators 3 --noise 0.25 --seed 7 --out boxes.jsonl
agree compare --input boxes.jsonl --distances box_iou,box_giou,box_l2,count_diff --seed 7 \
  | tee boxes.txt
grep -F "1     box_l2                0.6461   0.9667   0.9656      1.0000" boxes.txt
grep -F "2     box_iou               0.4970   0.8556   0.8233      1.0000" boxes.txt
grep -F "3     box_giou              0.5711   0.8000   0.8189      1.0000" boxes.txt
grep -F "4     count_diff            0.5530   0.6222   0.3800      1.0000" boxes.txt
# a number parameter must be a real number, not a bool: l2_scale=true is a usage error (exit 2),
# not a scale of 1.0
code=0
agree compute --input boxes.jsonl --distance box_l2 --param l2_scale=true 2> l2-scale.txt || code=$?
cat l2-scale.txt
test "$code" -eq 2
grep -Fx "error: cannot configure distance 'box_l2': l2_scale must be a number, got True" l2-scale.txt
# boxes whose corners are out of order on line 3 are a data error (exit 3) at load; the
# malformed JSON on line 5 comes later in the file, so line 3 is the one reported
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "boxes", "label": [[0, 0, 1, 1]]}' \
  '{"item": "i0", "annotator": "a1", "kind": "boxes", "label": [[0, 0, 2, 2]]}' \
  '{"item": "i1", "annotator": "a0", "kind": "boxes", "label": [[2, 0, 1, 1]]}' \
  '{"item": "i1", "annotator": "a1", "kind": "boxes", "label": [[0, 0, 1, 1]]}' \
  '{"item": "i2", "annotator": "a0", "kind": "boxes", "label": [[0, 0, 1, 1]]' > unordered.jsonl
code=0
agree compute --input unordered.jsonl --distance box_iou 2> unordered.txt || code=$?
cat unordered.txt
test "$code" -eq 3
grep -Fx "error: unordered.jsonl:3: box corners out of order: Box(x0=2.0, y0=0.0, x1=1.0, y1=1.0)" \
  unordered.txt
# boxes at the float limit: the overlap kernel scales a pair whose widths, areas or hull
# would overflow by a power of two, which leaves GIoU as it is
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "boxes", "label": [[-1e308, -1e308, 1e308, 1e308]]}' \
  '{"item": "i0", "annotator": "a1", "kind": "boxes", "label": [[-1e308, 0, 1e308, 1e308]]}' \
  '{"item": "i1", "annotator": "a0", "kind": "boxes", "label": [[0, 0, 1e308, 5e307]]}' \
  '{"item": "i1", "annotator": "a1", "kind": "boxes", "label": [[-5e307, -1e308, 1e308, 0]]}' \
  > huge.jsonl
agree compute --input huge.jsonl --distance box_giou | tee huge.txt
grep -Fx "alpha      : 0.0453" huge.txt

# token edit distance and tree edit distance, each through its batch kernel
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "tokens", "label": ["the", "cat", "sat", "on", "the", "mat"]}' \
  '{"item": "i0", "annotator": "a1", "kind": "tokens", "label": ["the", "cat", "sat", "on", "a", "mat"]}' \
  '{"item": "i1", "annotator": "a0", "kind": "tokens", "label": ["a", "dog", "ran", "home"]}' \
  '{"item": "i1", "annotator": "a1", "kind": "tokens", "label": ["the", "dog", "ran", "home"]}' \
  '{"item": "i2", "annotator": "a0", "kind": "tokens", "label": ["birds", "sing", "at", "dawn"]}' \
  '{"item": "i2", "annotator": "a1", "kind": "tokens", "label": ["birds", "sing", "at", "dusk"]}' \
  > tokens.jsonl
agree compute --input tokens.jsonl --distance levenshtein | tee levenshtein.txt
grep -Fx "alpha      : 0.7714" levenshtein.txt
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "tree", "label": ["S", [["NP", ["D", "N"]], ["VP", ["V"]]]]}' \
  '{"item": "i0", "annotator": "a1", "kind": "tree", "label": ["S", [["NP", ["N"]], ["VP", ["V"]]]]}' \
  '{"item": "i1", "annotator": "a0", "kind": "tree", "label": ["S", [["VP", ["V", ["NP", ["N"]]]]]]}' \
  '{"item": "i1", "annotator": "a1", "kind": "tree", "label": ["S", [["VP", ["V", ["NP", ["D", "N"]]]]]]}' \
  '{"item": "i2", "annotator": "a0", "kind": "tree", "label": ["S", [["NP", ["N"]], ["VP", ["V", "ADV"]]]]}' \
  '{"item": "i2", "annotator": "a1", "kind": "tree", "label": ["S", [["NP", ["N"]], ["VP", ["V", ["PP", ["P", "N"]]]]]]}' \
  > trees.jsonl
agree compute --input trees.jsonl --distance ted | tee ted.txt
grep -Fx "alpha      : 0.5556" ted.txt
# how deep a tree may nest is a property of the file, not of the caller's stack: line 1 of
# trees.jsonl 490 levels deep (980 nested arrays) computes, and 500 levels deep is a data
# error (exit 3)
nested() {
  local open="" close="" i
  for ((i = 0; i < $1; i++)); do open+='["x", ['; close+=']]'; done
  printf '%s"x"%s' "$open" "$close"
}
for levels in 490 500; do
  { printf '{"item": "i0", "annotator": "a0", "kind": "tree", "label": %s}\n' "$(nested "$levels")"
    tail -n +2 trees.jsonl; } > "deep$levels.jsonl"
done
agree compute --input deep490.jsonl --distance ted | tee deep490.txt
grep -Fx "alpha      : 0.0080" deep490.txt
code=0
agree compute --input deep500.jsonl --distance ted 2> deep500.txt || code=$?
cat deep500.txt
test "$code" -eq 3
grep -Fx "error: deep500.jsonl:1: nested too deeply" deep500.txt
# check-metric skips repeated trees: two equal 490-level trees (lines 1 and 3) compare
# without recursing through their levels
{ head -n 1 deep490.jsonl; sed -n 2p trees.jsonl; head -n 1 deep490.jsonl | sed 's/"i0"/"i1"/'
  tail -n +4 trees.jsonl; } > twodeep.jsonl
agree check-metric --input twodeep.jsonl --distance ted | tee twodeep.txt
grep -Fx ok twodeep.txt

# a byte that is not UTF-8 (0xff) on line 4 alone is a data error (exit 3) of line 4
{ head -n 3 tokens.jsonl
  printf '{"item": "i1", "annotator": "a1", "kind": "tokens", "label": ["the", "d\xffog"]}\n'
  tail -n +5 tokens.jsonl; } > latin1.jsonl
code=0
agree compute --input latin1.jsonl --distance levenshtein 2> latin1.txt || code=$?
cat latin1.txt
test "$code" -eq 3
grep -F "error: latin1.jsonl:4: not UTF-8: 'utf-8' codec can't decode byte 0xff in position" \
  latin1.txt

# vector and ranking labels are checked at load as packed arrays: a ranking that repeats an
# element (line 3) and a vector holding 1e999 (line 2, which JSON reads as inf) are data errors
# (exit 3) of their lines
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "ranking", "label": ["a", "b", "c"]}' \
  '{"item": "i0", "annotator": "a1", "kind": "ranking", "label": ["b", "a", "c"]}' \
  '{"item": "i1", "annotator": "a0", "kind": "ranking", "label": ["c", "a", "c"]}' \
  '{"item": "i1", "annotator": "a1", "kind": "ranking", "label": ["a", "c", "b"]}' > repeated.jsonl
code=0
agree compute --input repeated.jsonl --distance tau 2> repeated.txt || code=$?
cat repeated.txt
test "$code" -eq 3
grep -Fx "error: repeated.jsonl:3: ranking contains a repeated element" repeated.txt
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "vector", "label": [0.5, 0.1]}' \
  '{"item": "i0", "annotator": "a1", "kind": "vector", "label": [0.5, 1e999]}' \
  '{"item": "i1", "annotator": "a0", "kind": "vector", "label": [0.2, 0.1]}' \
  '{"item": "i1", "annotator": "a1", "kind": "vector", "label": [0.2, 0.3]}' > infinite.jsonl
code=0
agree compute --input infinite.jsonl --distance binary 2> infinite.txt || code=$?
cat infinite.txt
test "$code" -eq 3
grep -Fx "error: infinite.jsonl:2: vector values must be finite" infinite.txt
# a malformed --param is a usage error (exit 2) before the input is read: nope.jsonl does not
# exist, which would be exit 3
code=0
agree compute --input nope.jsonl --distance tau --param k 2> param.txt || code=$?
cat param.txt
test "$code" -eq 2
grep -Fx "error: --param expects key=value, got 'k'" param.txt

# expected pairs by rejection sampling: 2,200 annotations give 2,418,900 candidates
agree simulate --task vector --items 1100 --annotators 2 --noise 0.25 --seed 7 --out large.jsonl
agree compute --input large.jsonl --distance euclidean --seed 7 --exclude-same-annotator \
  | tee large.txt
grep -F "alpha      : 0.3564" large.txt
grep -F "pairs      : observed=1100 expected_used=11000 expected_available=1208900" large.txt

# expected distances above the distance's upper bound are a data error (exit 3) that names
# them: --param ranges=[[0,1]] scales vectors valued up to 5.2, which validation (reading only
# the meta ranges) passes
printf '%s\n' \
  '{"item": "i0", "annotator": "a0", "kind": "vector", "label": [0.0]}' \
  '{"item": "i0", "annotator": "a1", "kind": "vector", "label": [0.2]}' \
  '{"item": "i1", "annotator": "a0", "kind": "vector", "label": [5.0]}' \
  '{"item": "i1", "annotator": "a1", "kind": "vector", "label": [5.2]}' > far-vector.jsonl
code=0
agree compute --input far-vector.jsonl --distance euclidean --param 'ranges=[[0,1]]' \
  2> far-vector.txt || code=$?
cat far-vector.txt
test "$code" -eq 3
grep -Fx "error: expected euclidean distances exceed the distance's upper bound 1.0: the largest is 5.2" \
  far-vector.txt

# metric axioms of kernel-backed entries on simulated payloads; a NaN tolerance is a usage
# error (exit 2), checked before the input is read
code=0
agree check-metric --input demo.jsonl --distance tau --tolerance nan 2> nan-tolerance.txt || code=$?
cat nan-tolerance.txt
test "$code" -eq 2
grep -Fx "error: --tolerance must be finite and nonnegative" nan-tolerance.txt
agree simulate --task vector --items 30 --annotators 3 --noise 0.25 --seed 7 --out vector.jsonl
agree check-metric --input demo.jsonl --distance tau | tee tau-metric.txt
grep -Fx ok tau-metric.txt
agree check-metric --input vector.jsonl --distance euclidean | tee euclidean-metric.txt
grep -Fx ok euclidean-metric.txt
agree check-metric --input boxes.jsonl --distance box_l2 | tee box-l2-metric.txt
grep -Fx ok box-l2-metric.txt
# the NER kernel over check-metric's every ordered pair: symmetry and identity hold
agree check-metric --input spans.jsonl --distance ner_both_lenient | tee ner-lenient-metric.txt
grep -Fx "payloads=12, nonnegativity violations=0, symmetry violations=0, identity violations=0, triangle violations=4" ner-lenient-metric.txt
grep -Fx ok ner-lenient-metric.txt
agree check-metric --input spans.jsonl --distance ner_both_strict | tee ner-strict-metric.txt
grep -Fx "payloads=12, nonnegativity violations=0, symmetry violations=0, identity violations=0, triangle violations=0" ner-strict-metric.txt
grep -Fx ok ner-strict-metric.txt
