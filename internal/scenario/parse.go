package scenario

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Config file format (stdlib-only, line-based):
//
//	# comment lines start with '#'
//	scns = 30            # optional: pin the topology size
//
//	[sleep]              # a section header opens one event
//	scns   = 0-9         # SCN set: "*", "3", "0-9", or "1,4-6,9"
//	period = 200
//	offset = 50
//	duration = 60
//
//	[churn]
//	mean-up   = 80
//	mean-down = 20
//
// Sections may repeat; events compose. Duplicate keys within a scope,
// unknown kinds, keys the section's kind does not read (kindKeys),
// malformed numbers, and out-of-range SCN ranges are hard errors — the
// parser never silently drops input.

// maxSetSpan bounds how many SCN ids a single set expression may
// expand to, so a hostile "0-2000000000" cannot make Parse allocate
// unboundedly. Real topologies are orders of magnitude smaller.
const maxSetSpan = 4096

// maxEvents bounds the number of sections a config may declare.
const maxEvents = 256

// kindKeys lists the keys each event kind reads. A key outside its
// section's list is an error, not a no-op: it would still enter the
// digest, so two configs that build the same timeline would refuse each
// other's checkpoints.
var kindKeys = map[string][]string{
	KindSleep:    {"scns", "period", "offset", "duration"},
	KindChurn:    {"scns", "mean-up", "mean-down"},
	KindBlockage: {"scns", "rate", "width", "duration"},
	KindDiurnal:  {"scns", "period", "offset", "min-cap"},
	KindBudget:   {"scns", "period", "offset", "alpha-min", "beta-min"},
}

// Parse decodes a scenario config. It performs syntactic and
// field-level checks only; call Config.Validate (or Build, which does)
// for topology-dependent semantic validation.
func Parse(data []byte) (Config, error) {
	var cfg Config
	var cur *Event
	seen := map[string]bool{} // duplicate-key guard, reset per section
	lines := strings.Split(string(data), "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return Config{}, fmt.Errorf("scenario: line %d: unterminated section header %q", ln+1, line)
			}
			kind := strings.TrimSpace(line[1 : len(line)-1])
			if _, ok := kindKeys[kind]; !ok {
				return Config{}, fmt.Errorf("scenario: line %d: unknown event kind %q", ln+1, kind)
			}
			if len(cfg.Events) >= maxEvents {
				return Config{}, fmt.Errorf("scenario: line %d: more than %d events", ln+1, maxEvents)
			}
			ev := Event{Kind: kind, SCNs: Set{All: true}}
			if kind == KindBudget {
				// Default both troughs to 1 (no effect) so a config can
				// cycle just one of the two budgets.
				ev.AlphaMin, ev.BetaMin = 1, 1
			}
			cfg.Events = append(cfg.Events, ev)
			cur = &cfg.Events[len(cfg.Events)-1]
			seen = map[string]bool{}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Config{}, fmt.Errorf("scenario: line %d: expected 'key = value' or '[section]', got %q", ln+1, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if key == "" || val == "" {
			return Config{}, fmt.Errorf("scenario: line %d: empty key or value", ln+1)
		}
		if seen[key] {
			return Config{}, fmt.Errorf("scenario: line %d: duplicate key %q", ln+1, key)
		}
		seen[key] = true
		if cur == nil {
			// Top-level scope: only the topology pin lives here.
			if key != "scns" {
				return Config{}, fmt.Errorf("scenario: line %d: key %q before any [section] (only 'scns' is top-level)", ln+1, key)
			}
			n, err := parseInt(val)
			if err != nil || n <= 0 {
				return Config{}, fmt.Errorf("scenario: line %d: scns = %q is not a positive integer", ln+1, val)
			}
			cfg.SCNs = n
			continue
		}
		if err := setField(cur, key, val); err != nil {
			return Config{}, fmt.Errorf("scenario: line %d: %w", ln+1, err)
		}
	}
	return cfg, nil
}

// ParseFile reads and parses a scenario config file.
func ParseFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := Parse(data)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

func setField(ev *Event, key, val string) error {
	if !slices.Contains(kindKeys[ev.Kind], key) {
		return fmt.Errorf("unknown key %q in [%s]", key, ev.Kind)
	}
	switch key {
	case "scns":
		set, err := parseSet(val)
		if err != nil {
			return fmt.Errorf("scns = %q: %w", val, err)
		}
		ev.SCNs = set
		return nil
	case "period":
		return setInt(&ev.Period, key, val)
	case "offset":
		return setInt(&ev.Offset, key, val)
	case "duration":
		return setInt(&ev.Duration, key, val)
	case "width":
		return setInt(&ev.Width, key, val)
	case "mean-up":
		return setFloat(&ev.MeanUp, key, val)
	case "mean-down":
		return setFloat(&ev.MeanDown, key, val)
	case "rate":
		return setFloat(&ev.Rate, key, val)
	case "min-cap":
		return setFloat(&ev.MinCap, key, val)
	case "alpha-min":
		return setFloat(&ev.AlphaMin, key, val)
	case "beta-min":
		return setFloat(&ev.BetaMin, key, val)
	default:
		return fmt.Errorf("unknown key %q in [%s]", key, ev.Kind)
	}
}

func setInt(dst *int, key, val string) error {
	n, err := parseInt(val)
	if err != nil {
		return fmt.Errorf("%s = %q is not an integer", key, val)
	}
	*dst = n
	return nil
}

func setFloat(dst *float64, key, val string) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("%s = %q is not a number", key, val)
	}
	*dst = f
	return nil
}

func parseInt(val string) (int, error) {
	n, err := strconv.ParseInt(val, 10, 32)
	return int(n), err
}

// parseSet parses an SCN set expression: "*" (all), or a comma list of
// ids and inclusive ranges ("1,4-6,9"). The result is sorted and
// duplicate-free; overlapping ranges are an error.
func parseSet(val string) (Set, error) {
	if val == "*" {
		return Set{All: true}, nil
	}
	var ids []int
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := parseInt(strings.TrimSpace(lo))
		if err != nil || a < 0 {
			return Set{}, fmt.Errorf("bad SCN id %q", part)
		}
		b := a
		if isRange {
			b, err = parseInt(strings.TrimSpace(hi))
			if err != nil || b < a {
				return Set{}, fmt.Errorf("bad SCN range %q", part)
			}
		}
		if b-a+1 > maxSetSpan || len(ids)+(b-a+1) > maxSetSpan {
			return Set{}, fmt.Errorf("SCN set wider than %d ids", maxSetSpan)
		}
		for m := a; m <= b; m++ {
			ids = append(ids, m)
		}
	}
	if len(ids) == 0 {
		return Set{}, fmt.Errorf("empty SCN set")
	}
	sort.Ints(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return Set{}, fmt.Errorf("duplicate SCN id %d", ids[i])
		}
	}
	return Set{IDs: ids}, nil
}
