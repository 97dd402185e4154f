package engine

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"sqlancerpp/internal/feature"
)

// FuncDef describes one scalar function: its arity, the argument kinds a
// static dialect requires, its result kind, and its implementation.
//
// Trigonometric and logarithmic functions use fixed-point arithmetic
// (results scaled by 1000) to stay within the platform's three data types
// (INTEGER, TEXT, BOOLEAN); see DESIGN.md's substitution table. Domain
// errors (ASIN(2000), LN(0), SQRT(-1), division inside MOD) behave per
// dialect: statically typed systems raise runtime errors — the paper's
// context-dependent failures — and dynamic systems yield NULL.
type FuncDef struct {
	Name string
	// Feature is the function's feature ID (set on registration).
	Feature feature.ID
	MinArgs int
	MaxArgs int // -1 means variadic
	// ArgKinds lists required kinds per position for static type checking;
	// KindNull means "any". If shorter than the actual argument list, the
	// last entry repeats.
	ArgKinds []Kind
	// Result is the static result kind; KindNull means "same as first arg".
	Result Kind
	Impl   func(ctx *evalCtx, args []Value) (Value, *Error)
}

// scale is the fixed-point scale for transcendental functions.
const scale = 1000

// funcRegistry holds every function the engine implements (universal
// grammar functions plus dialect-specific extras). It is populated by a
// variable initializer so that it precedes every init() in the package
// (coverage-point registration needs the complete registry).
var funcRegistry = buildFuncRegistry()

func buildFuncRegistry() map[string]*FuncDef {
	regMap = map[string]*FuncDef{}
	registerNumericFuncs()
	registerStringFuncs()
	registerConditionalFuncs()
	registerExtraFuncs()
	return regMap
}

var regMap map[string]*FuncDef

// FuncNames returns all implemented function names, sorted (for tests).
func FuncNames() []string {
	out := make([]string, 0, len(funcRegistry))
	for n := range funcRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LookupFunc returns a function definition by upper-case name.
func LookupFunc(name string) *FuncDef { return funcRegistry[name] }

// funcByID indexes the registry by feature ID.
var funcByID [feature.NumIDs]*FuncDef

// FuncByID returns the definition of the function with that feature ID,
// or nil.
func FuncByID(id feature.ID) *FuncDef { return funcByID[id] }

// funcFeature returns the feature ID of a function name: the registry's
// for an implemented function, else the table's (aggregates).
func funcFeature(name string) (feature.ID, bool) {
	if d := funcRegistry[name]; d != nil {
		return d.Feature, true
	}
	return feature.Lookup(name)
}

func reg(d *FuncDef) {
	d.Feature = feature.MustLookup(d.Name)
	regMap[d.Name] = d
	funcByID[d.Feature] = d
}

// anyNull returns the index of the first NULL argument, or -1.
func anyNull(args []Value) int {
	for i, a := range args {
		if a.IsNull() {
			return i
		}
	}
	return -1
}

// nullPropagate wraps an implementation so that any NULL argument yields
// NULL (the default SQL behavior for most scalar functions).
func nullPropagate(impl func(ctx *evalCtx, args []Value) (Value, *Error)) func(ctx *evalCtx, args []Value) (Value, *Error) {
	return func(ctx *evalCtx, args []Value) (Value, *Error) {
		if anyNull(args) >= 0 {
			return Null(), nil
		}
		return impl(ctx, args)
	}
}

// domainError yields a runtime error on statically typed dialects and
// NULL on dynamic ones.
func domainError(ctx *evalCtx, fn string) (Value, *Error) {
	if ctx.dialect.MathDomainError {
		return Null(), errf(ErrRuntime, "%s: argument out of domain", fn)
	}
	return Null(), nil
}

func fixed(f float64) Value {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return Null()
	}
	return Int(int64(math.Round(f * scale)))
}

func registerNumericFuncs() {
	ints := []Kind{KindInt}
	reg(&FuncDef{Name: "ABS", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			v := toInt(a[0])
			if v < 0 {
				v = -v
			}
			return Int(v), nil
		})})
	reg(&FuncDef{Name: "SIGN", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			v := toInt(a[0])
			switch {
			case v > 0:
				return Int(1), nil
			case v < 0:
				return Int(-1), nil
			default:
				return Int(0), nil
			}
		})})
	reg(&FuncDef{Name: "MOD", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			d := toInt(a[1])
			if d == 0 {
				if ctx.dialect.DivZeroError {
					return Null(), errf(ErrRuntime, "MOD: division by zero")
				}
				return Null(), nil
			}
			return Int(toInt(a[0]) % d), nil
		})})
	identity := nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
		return Int(toInt(a[0])), nil
	})
	for _, n := range []string{"ROUND", "CEIL", "FLOOR", "TRUNC"} {
		reg(&FuncDef{Name: n, MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt, Impl: identity})
	}
	reg(&FuncDef{Name: "SQRT", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			v := toInt(a[0])
			if v < 0 {
				return domainError(ctx, "SQRT")
			}
			return Int(int64(math.Round(math.Sqrt(float64(v))))), nil
		})})
	powImpl := nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
		base, exp := toInt(a[0]), toInt(a[1])
		if exp < 0 {
			return domainError(ctx, "POWER")
		}
		if exp > 62 {
			return domainError(ctx, "POWER")
		}
		var out int64 = 1
		for i := int64(0); i < exp; i++ {
			out *= base // deterministic wraparound on overflow
		}
		return Int(out), nil
	})
	reg(&FuncDef{Name: "POWER", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt, Impl: powImpl})
	reg(&FuncDef{Name: "POW", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt, Impl: powImpl})
	reg(&FuncDef{Name: "EXP", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			v := toInt(a[0])
			if v > 30 { // e^31 * 1000 would overflow int64
				return domainError(ctx, "EXP")
			}
			return fixed(math.Exp(float64(v))), nil
		})})
	logf := func(name string, f func(float64) float64) {
		reg(&FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				v := toInt(a[0])
				if v <= 0 {
					return domainError(ctx, name)
				}
				return fixed(f(float64(v))), nil
			})})
	}
	logf("LN", math.Log)
	logf("LOG", math.Log)
	logf("LOG10", math.Log10)
	logf("LOG2", math.Log2)
	trig := func(name string, f func(float64) float64) {
		reg(&FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				return fixed(f(float64(toInt(a[0])))), nil
			})})
	}
	trig("SIN", math.Sin)
	trig("COS", math.Cos)
	trig("TAN", math.Tan)
	reg(&FuncDef{Name: "COT", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			t := math.Tan(float64(toInt(a[0])))
			if t == 0 {
				return domainError(ctx, "COT")
			}
			return fixed(1 / t), nil
		})})
	arc := func(name string, f func(float64) float64) {
		// Fixed-point domain: |x| <= 1000 represents |x| <= 1.0, so
		// ASIN(1) succeeds while ASIN(2) fails — the paper's §4 example of
		// a context-dependent failure.
		reg(&FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				v := toInt(a[0])
				if v < -scale || v > scale {
					return domainError(ctx, name)
				}
				return fixed(f(float64(v) / scale)), nil
			})})
	}
	arc("ASIN", math.Asin)
	arc("ACOS", math.Acos)
	reg(&FuncDef{Name: "ATAN", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return fixed(math.Atan(float64(toInt(a[0])))), nil
		})})
	reg(&FuncDef{Name: "ATAN2", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return fixed(math.Atan2(float64(toInt(a[0])), float64(toInt(a[1])))), nil
		})})
	reg(&FuncDef{Name: "DEGREES", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(int64(math.Round(float64(toInt(a[0])) * 180 / math.Pi))), nil
		})})
	reg(&FuncDef{Name: "RADIANS", MinArgs: 1, MaxArgs: 1, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(int64(math.Round(float64(toInt(a[0])) * math.Pi / 180 * scale))), nil
		})})
	reg(&FuncDef{Name: "PI", MinArgs: 0, MaxArgs: 0, Result: KindInt,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) { return Int(3142), nil }})
	gcd := func(a, b int64) int64 {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	reg(&FuncDef{Name: "GCD", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(gcd(toInt(a[0]), toInt(a[1]))), nil
		})})
	reg(&FuncDef{Name: "LCM", MinArgs: 2, MaxArgs: 2, ArgKinds: ints, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			x, y := toInt(a[0]), toInt(a[1])
			g := gcd(x, y)
			if g == 0 {
				return Int(0), nil
			}
			return Int(x / g * y), nil
		})})
}

func registerStringFuncs() {
	texts := []Kind{KindText}
	reg(&FuncDef{Name: "LENGTH", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(int64(len([]rune(toText(a[0]))))), nil
		})})
	reg(&FuncDef{Name: "CHAR_LENGTH", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(int64(len([]rune(toText(a[0]))))), nil
		})})
	reg(&FuncDef{Name: "BIT_LENGTH", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(8 * int64(len(toText(a[0])))), nil
		})})
	reg(&FuncDef{Name: "OCTET_LENGTH", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Int(int64(len(toText(a[0])))), nil
		})})
	strFn := func(name string, f func(string) string) {
		reg(&FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindText,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				return Text(f(toText(a[0]))), nil
			})})
	}
	strFn("LOWER", strings.ToLower)
	strFn("UPPER", strings.ToUpper)
	strFn("TRIM", strings.TrimSpace)
	strFn("LTRIM", func(s string) string { return strings.TrimLeft(s, " ") })
	strFn("RTRIM", func(s string) string { return strings.TrimRight(s, " ") })
	strFn("REVERSE", func(s string) string {
		r := []rune(s)
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		return string(r)
	})
	strFn("INITCAP", func(s string) string {
		var sb strings.Builder
		up := true
		for _, r := range s {
			if up && r >= 'a' && r <= 'z' {
				r -= 32
			} else if !up && r >= 'A' && r <= 'Z' {
				r += 32
			}
			up = r == ' '
			sb.WriteRune(r)
		}
		return sb.String()
	})
	reg(&FuncDef{Name: "REPLACE", MinArgs: 3, MaxArgs: 3, ArgKinds: texts, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			s, from, to := toText(a[0]), toText(a[1]), toText(a[2])
			if from == "" {
				return Text(s), nil
			}
			return Text(strings.ReplaceAll(s, from, to)), nil
		})})
	reg(&FuncDef{Name: "SUBSTR", MinArgs: 2, MaxArgs: 3,
		ArgKinds: []Kind{KindText, KindInt, KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			r := []rune(toText(a[0]))
			start := toInt(a[1])
			length := int64(len(r))
			if len(a) == 3 {
				length = toInt(a[2])
			}
			if length < 0 {
				length = 0
			}
			// 1-based start; non-positive counts from 1.
			if start < 1 {
				start = 1
			}
			i := start - 1
			if i >= int64(len(r)) {
				return Text(""), nil
			}
			j := i + length
			if j > int64(len(r)) {
				j = int64(len(r))
			}
			return Text(string(r[i:j])), nil
		})})
	instr := nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
		idx := strings.Index(toText(a[0]), toText(a[1]))
		return Int(int64(idx) + 1), nil
	})
	reg(&FuncDef{Name: "INSTR", MinArgs: 2, MaxArgs: 2, ArgKinds: texts, Result: KindInt, Impl: instr})
	reg(&FuncDef{Name: "STRPOS", MinArgs: 2, MaxArgs: 2, ArgKinds: texts, Result: KindInt, Impl: instr})
	reg(&FuncDef{Name: "HEX", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			const digits = "0123456789ABCDEF"
			s := toText(a[0])
			var sb strings.Builder
			for i := 0; i < len(s); i++ {
				sb.WriteByte(digits[s[i]>>4])
				sb.WriteByte(digits[s[i]&0xf])
			}
			return Text(sb.String()), nil
		})})
	reg(&FuncDef{Name: "QUOTE", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindNull}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].K == KindText {
				return Text("'" + strings.ReplaceAll(a[0].S, "'", "''") + "'"), nil
			}
			return Text(a[0].Render()), nil
		}})
	reg(&FuncDef{Name: "ASCII", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			s := toText(a[0])
			if s == "" {
				return Int(0), nil
			}
			return Int(int64(s[0])), nil
		})})
	reg(&FuncDef{Name: "CHR", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			v := toInt(a[0])
			if v <= 0 || v > 0x10FFFF {
				return Text(""), nil
			}
			return Text(string(rune(v))), nil
		})})
	reg(&FuncDef{Name: "UNICODE", MinArgs: 1, MaxArgs: 1, ArgKinds: texts, Result: KindInt,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			s := toText(a[0])
			if s == "" {
				return Null(), nil
			}
			return Int(int64([]rune(s)[0])), nil
		})})
	reg(&FuncDef{Name: "SPACE", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			n := toInt(a[0])
			if n < 0 {
				n = 0
			}
			if n > 100 {
				n = 100
			}
			return Text(strings.Repeat(" ", int(n))), nil
		})})
	reg(&FuncDef{Name: "SPLIT_PART", MinArgs: 3, MaxArgs: 3,
		ArgKinds: []Kind{KindText, KindText, KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			delim := toText(a[1])
			n := toInt(a[2])
			if delim == "" || n < 1 {
				return Text(""), nil
			}
			parts := strings.Split(toText(a[0]), delim)
			if n > int64(len(parts)) {
				return Text(""), nil
			}
			return Text(parts[n-1]), nil
		})})
	reg(&FuncDef{Name: "TRANSLATE", MinArgs: 3, MaxArgs: 3, ArgKinds: texts, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			from := []rune(toText(a[1]))
			to := []rune(toText(a[2]))
			var sb strings.Builder
			for _, r := range toText(a[0]) {
				idx := -1
				for i, f := range from {
					if f == r {
						idx = i
						break
					}
				}
				if idx < 0 {
					sb.WriteRune(r)
				} else if idx < len(to) {
					sb.WriteRune(to[idx])
				}
			}
			return Text(sb.String()), nil
		})})
	pad := func(name string, left bool) {
		reg(&FuncDef{Name: name, MinArgs: 2, MaxArgs: 3,
			ArgKinds: []Kind{KindText, KindInt, KindText}, Result: KindText,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				s := []rune(toText(a[0]))
				n := toInt(a[1])
				if n < 0 {
					n = 0
				}
				if n > 200 {
					n = 200
				}
				p := " "
				if len(a) == 3 {
					p = toText(a[2])
				}
				if int64(len(s)) >= n {
					return Text(string(s[:n])), nil
				}
				if p == "" {
					return Text(string(s)), nil
				}
				fill := []rune(strings.Repeat(p, int(n)))[:n-int64(len(s))]
				if left {
					return Text(string(fill) + string(s)), nil
				}
				return Text(string(s) + string(fill)), nil
			})})
	}
	pad("LPAD", true)
	pad("RPAD", false)
}

func registerConditionalFuncs() {
	reg(&FuncDef{Name: "NULLIF", MinArgs: 2, MaxArgs: 2, ArgKinds: []Kind{KindNull}, Result: KindNull,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].IsNull() || a[1].IsNull() {
				return a[0], nil
			}
			if numericKind(a[0].K) == numericKind(a[1].K) && Compare(a[0], a[1]) == 0 {
				return Null(), nil
			}
			return a[0], nil
		}})
	coalesce := func(ctx *evalCtx, a []Value) (Value, *Error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	}
	reg(&FuncDef{Name: "COALESCE", MinArgs: 2, MaxArgs: -1, ArgKinds: []Kind{KindNull}, Result: KindNull, Impl: coalesce})
	reg(&FuncDef{Name: "IFNULL", MinArgs: 2, MaxArgs: 2, ArgKinds: []Kind{KindNull}, Result: KindNull, Impl: coalesce})
	reg(&FuncDef{Name: "IIF", MinArgs: 3, MaxArgs: 3,
		ArgKinds: []Kind{KindBool, KindNull, KindNull}, Result: KindNull,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if truthiness(a[0]) == TriTrue {
				return a[1], nil
			}
			return a[2], nil
		}})
	reg(&FuncDef{Name: "TYPEOF", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindNull}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Text(strings.ToLower(a[0].K.String())), nil
		}})
}

func registerExtraFuncs() {
	pick := func(name string, want int) { // GREATEST / LEAST
		reg(&FuncDef{Name: name, MinArgs: 2, MaxArgs: -1, ArgKinds: []Kind{KindNull}, Result: KindNull,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				best := a[0]
				for _, v := range a[1:] {
					if Compare(v, best) == want {
						best = v
					}
				}
				return best, nil
			})})
	}
	pick("GREATEST", 1)
	pick("LEAST", -1)
	reg(&FuncDef{Name: "CONCAT", MinArgs: 1, MaxArgs: -1, ArgKinds: []Kind{KindText}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			var sb strings.Builder
			for _, v := range a {
				if !v.IsNull() {
					sb.WriteString(toText(v))
				}
			}
			return Text(sb.String()), nil
		}})
	reg(&FuncDef{Name: "CONCAT_WS", MinArgs: 2, MaxArgs: -1, ArgKinds: []Kind{KindText}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].IsNull() {
				return Null(), nil
			}
			sep := toText(a[0])
			parts := make([]string, 0, len(a)-1)
			for _, v := range a[1:] {
				if !v.IsNull() {
					parts = append(parts, toText(v))
				}
			}
			return Text(strings.Join(parts, sep)), nil
		}})
	reg(&FuncDef{Name: "REPEAT", MinArgs: 2, MaxArgs: 2,
		ArgKinds: []Kind{KindText, KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			n := toInt(a[1])
			if n < 0 {
				n = 0
			}
			if n > 50 {
				n = 50
			}
			return Text(strings.Repeat(toText(a[0]), int(n))), nil
		})})
	reg(&FuncDef{Name: "ELT", MinArgs: 2, MaxArgs: -1,
		ArgKinds: []Kind{KindInt, KindText}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].IsNull() {
				return Null(), nil
			}
			n := toInt(a[0])
			if n < 1 || n > int64(len(a)-1) {
				return Null(), nil
			}
			return a[n], nil
		}})
	reg(&FuncDef{Name: "FIELD", MinArgs: 2, MaxArgs: -1, ArgKinds: []Kind{KindNull}, Result: KindInt,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].IsNull() {
				return Int(0), nil
			}
			for i, v := range a[1:] {
				if !v.IsNull() && Equal(a[0], v) {
					return Int(int64(i) + 1), nil
				}
			}
			return Int(0), nil
		}})
	baseConv := func(name string, base int) {
		reg(&FuncDef{Name: name, MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindInt}, Result: KindText,
			Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
				return Text(strconv.FormatUint(uint64(toInt(a[0])), base)), nil
			})})
	}
	baseConv("BIN", 2)
	baseConv("OCT", 8)
	reg(&FuncDef{Name: "TO_HEX", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindInt}, Result: KindText,
		Impl: nullPropagate(func(ctx *evalCtx, a []Value) (Value, *Error) {
			return Text(strconv.FormatUint(uint64(toInt(a[0])), 16)), nil
		})})
	reg(&FuncDef{Name: "PRINTF", MinArgs: 1, MaxArgs: -1, ArgKinds: []Kind{KindText, KindNull}, Result: KindText,
		Impl: func(ctx *evalCtx, a []Value) (Value, *Error) {
			if a[0].IsNull() {
				return Null(), nil
			}
			format := toText(a[0])
			var sb strings.Builder
			argi := 1
			for i := 0; i < len(format); i++ {
				c := format[i]
				if c != '%' || i+1 >= len(format) {
					sb.WriteByte(c)
					continue
				}
				i++
				switch format[i] {
				case '%':
					sb.WriteByte('%')
				case 'd':
					if argi < len(a) {
						sb.WriteString(strconv.FormatInt(toInt(a[argi]), 10))
						argi++
					}
				case 's':
					if argi < len(a) {
						sb.WriteString(toText(a[argi]))
						argi++
					}
				default:
					sb.WriteByte(format[i])
				}
			}
			return Text(sb.String()), nil
		}})
	passthrough := func(ctx *evalCtx, a []Value) (Value, *Error) { return a[0], nil }
	reg(&FuncDef{Name: "LIKELY", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindNull}, Result: KindNull, Impl: passthrough})
	reg(&FuncDef{Name: "UNLIKELY", MinArgs: 1, MaxArgs: 1, ArgKinds: []Kind{KindNull}, Result: KindNull, Impl: passthrough})
}
