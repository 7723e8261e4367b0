#!/usr/bin/env bash
# check_docs.sh — the docs/code drift gate.
#
# Two directions, twice over:
#   1. docs -> code: every knob named in a docs/TUNING.md table row
#      (lines shaped `| `knob_name` | ...`) must exist verbatim in the
#      public option headers. A renamed or deleted knob fails here.
#   2. code -> docs: every field of CampaignOptions and its nested option
#      groups (src/explore/campaign.hpp), and every field of
#      core::DiceOptions (src/dice/orchestrator.hpp), must be mentioned as
#      `field` somewhere in docs/TUNING.md. A new undocumented knob fails
#      here.
#   3. metrics -> docs: every metric name in src/obs/names.hpp must appear
#      backticked in docs/OBSERVABILITY.md.
#   4. docs -> metrics: every backticked `dice_*` name in
#      docs/OBSERVABILITY.md must exist in src/obs/names.hpp. Derived
#      Prometheus series (_bucket/_sum/_count) are written WITHOUT
#      backticks in the doc precisely so this direction stays exact.
#   5. implementation ids <-> docs/HETEROGENEITY.md: every engine id
#      constant in src (`... kFooImplementationId = "foo";`) must have a
#      table row (`| `foo` | ...`) in docs/HETEROGENEITY.md, and every
#      table-row id there must exist as a constant — registering a third
#      engine or renaming one without documenting it fails here.
#   6. svc::SoakOptions <-> docs/SERVICE.md: every field of the struct
#      must have a knob table row in the doc, and every table-row knob
#      there must be declared in the struct's header — the soak daemon's
#      own knobs get the same two-way gate as the campaign's.
#
# Exit nonzero on any drift; print every offender, not just the first.
set -u

cd "$(dirname "$0")/.."

TUNING=docs/TUNING.md
HEADERS=(
  src/explore/campaign.hpp
  src/explore/matrix.hpp
  src/explore/pool.hpp
  src/explore/live_cache.hpp
  src/dice/orchestrator.hpp
)

fail=0

if [[ ! -f "$TUNING" ]]; then
  echo "check_docs: missing $TUNING" >&2
  exit 1
fi

# --- direction 1: every documented knob exists in a public header --------
doc_knobs=$(grep -oE '^\| `[a-z][a-z0-9_]*`' "$TUNING" | sed -E 's/^\| `([a-z0-9_]*)`/\1/' | sort -u)
if [[ -z "$doc_knobs" ]]; then
  echo "check_docs: no knob table rows found in $TUNING (format changed?)" >&2
  exit 1
fi
for knob in $doc_knobs; do
  # Declaration-shaped lines only (`Type name = ...;` / `Type name{...};` /
  # `Type name;`) — matching the knob name anywhere would let a comment
  # that merely mentions the word keep a deleted knob "documented".
  if ! grep -qE "^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>,* ]*[[:space:]][*&]?${knob}([[:space:]]*=|\{|;)" \
       "${HEADERS[@]}"; then
    echo "check_docs: $TUNING documents '$knob' but no public header declares it" >&2
    fail=1
  fi
done

# --- direction 2: every option-struct field is documented ----------------
# Extract member names from `Type name = default;` / `Type name{...};`
# lines inside the option structs. The awk range covers each struct body.
extract_fields() {  # file, struct-start-regex
  awk -v start="$2" '
    $0 ~ start { depth = 1; next }
    depth > 0 {
      n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
      if ($0 ~ /^};/ || (m > n && --depth == 0)) { depth = 0; next }
      if ($0 ~ /^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>,* ]*[[:space:]][a-z_][a-z0-9_]*([[:space:]]*=[^=]|\{)/ &&
          $0 !~ /\(/ && $0 !~ /using|return|static|struct|class/) {
        line = $0
        sub(/[[:space:]]*(=|\{).*$/, "", line)
        sub(/.*[[:space:]*]/, "", line)
        print line
      }
    }
  ' "$1"
}

code_knobs=$(
  {
    extract_fields src/explore/campaign.hpp 'struct Budgets \{'
    extract_fields src/explore/campaign.hpp 'struct Caching \{'
    extract_fields src/explore/campaign.hpp 'struct Parallelism \{'
    extract_fields src/explore/campaign.hpp 'struct Telemetry \{'
    extract_fields src/explore/campaign.hpp 'struct Determinism \{'
    extract_fields src/dice/orchestrator.hpp 'struct DiceOptions \{'
    # Top-level CampaignOptions members documented by name:
    echo strategies
    echo deadline
  } | sort -u
)
for knob in $code_knobs; do
  # `stop` is the plumbed StopToken, not a tunable; skip control plumbing.
  case "$knob" in stop) continue ;; esac
  if ! grep -q "\`$knob\`" "$TUNING"; then
    echo "check_docs: public knob '$knob' is not documented in $TUNING" >&2
    fail=1
  fi
done

# --- directions 3 + 4: metric names <-> docs/OBSERVABILITY.md ------------
OBS_DOC=docs/OBSERVABILITY.md
OBS_NAMES=src/obs/names.hpp
if [[ ! -f "$OBS_DOC" || ! -f "$OBS_NAMES" ]]; then
  echo "check_docs: missing $OBS_DOC or $OBS_NAMES" >&2
  exit 1
fi
code_metrics=$(grep -oE '"dice_[a-z0-9_]+"' "$OBS_NAMES" | tr -d '"' | sort -u)
doc_metrics=$(grep -oE '`dice_[a-z0-9_]+`' "$OBS_DOC" | tr -d '\`' | sort -u)
if [[ -z "$code_metrics" ]]; then
  echo "check_docs: no metric names found in $OBS_NAMES (format changed?)" >&2
  exit 1
fi
for metric in $code_metrics; do
  if ! grep -q "\`$metric\`" "$OBS_DOC"; then
    echo "check_docs: metric '$metric' ($OBS_NAMES) is not documented in $OBS_DOC" >&2
    fail=1
  fi
done
for metric in $doc_metrics; do
  if ! grep -q "\"$metric\"" "$OBS_NAMES"; then
    echo "check_docs: $OBS_DOC documents metric '$metric' but $OBS_NAMES does not define it" >&2
    fail=1
  fi
done

# --- direction 5: implementation id constants <-> docs/HETEROGENEITY.md --
HET_DOC=docs/HETEROGENEITY.md
if [[ ! -f "$HET_DOC" ]]; then
  echo "check_docs: missing $HET_DOC" >&2
  exit 1
fi
code_impls=$(grep -rhoE 'ImplementationId[A-Za-z0-9_]*[[:space:]]*=[[:space:]]*"[a-z0-9_]+"' src \
  | grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
doc_impls=$(grep -oE '^\| `[a-z0-9_]+`' "$HET_DOC" | sed -E 's/^\| `([a-z0-9_]+)`/\1/' | sort -u)
if [[ -z "$code_impls" ]]; then
  echo "check_docs: no implementation id constants found in src (format changed?)" >&2
  exit 1
fi
for impl in $code_impls; do
  if ! grep -qE "^\| \`$impl\`" "$HET_DOC"; then
    echo "check_docs: implementation id '$impl' has no table row in $HET_DOC" >&2
    fail=1
  fi
done
for impl in $doc_impls; do
  case "$impl" in id) continue ;; esac  # the table header row
  if ! echo "$code_impls" | grep -qx "$impl"; then
    echo "check_docs: $HET_DOC documents implementation id '$impl' but no src constant defines it" >&2
    fail=1
  fi
done

# --- direction 6: option-struct fields <-> their doc's knob table ---------
# Every field of the struct must have a knob table row (`| `field` | ...`)
# in the doc, and every table-row knob there must be declared in the
# header. Leaves the struct's field count in `knob_count`.
check_struct_table() {  # header, struct-name, doc
  local header=$1 struct=$2 doc=$3 code_knobs doc_knobs knob
  if [[ ! -f "$doc" || ! -f "$header" ]]; then
    echo "check_docs: missing $doc or $header" >&2
    exit 1
  fi
  code_knobs=$(extract_fields "$header" "struct $struct \\{" | sort -u)
  doc_knobs=$(grep -oE '^\| `[a-z][a-z0-9_]*`' "$doc" | sed -E 's/^\| `([a-z0-9_]*)`/\1/' | sort -u)
  if [[ -z "$code_knobs" ]]; then
    echo "check_docs: no $struct fields found in $header (format changed?)" >&2
    exit 1
  fi
  for knob in $code_knobs; do
    if ! grep -qE "^\| \`$knob\`" "$doc"; then
      echo "check_docs: $struct field '$knob' has no knob table row in $doc" >&2
      fail=1
    fi
  done
  for knob in $doc_knobs; do
    if ! grep -qE "^[[:space:]]+[A-Za-z_][A-Za-z0-9_:<>,* ]*[[:space:]][*&]?${knob}([[:space:]]*=|\{|;)" \
         "$header"; then
      echo "check_docs: $doc documents '$knob' but $header does not declare it" >&2
      fail=1
    fi
  done
  knob_count=$(echo "$code_knobs" | wc -l)
}

check_struct_table src/svc/soak_service.hpp SoakOptions docs/SERVICE.md
svc_knob_count=$knob_count

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED — the docs and the code drifted" >&2
  exit 1
fi
echo "check_docs: OK ($(echo "$doc_knobs" | wc -l) documented knobs, $(echo "$code_knobs" | wc -l) public knobs, $(echo "$code_metrics" | wc -l) metrics, $(echo "$code_impls" | wc -l) implementation ids, $svc_knob_count soak knobs)"
