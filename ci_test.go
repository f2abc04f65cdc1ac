package clio_test

import (
	"fmt"
	"go/ast"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsMatch fails when a -run, -bench or -fuzz alternative that a
// go test step of the CI workflow passes matches no test of the packages
// that step names: a renamed test must not leave a step that runs nothing.
func TestCIPatternsMatch(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := repoModules()
	if err != nil {
		t.Fatal(err)
	}
	problems, checked := checkCIPatterns(string(yml), m)
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d alternatives checked", checked)
	if checked < 50 {
		t.Errorf("checked %d alternatives in ci.yml, want its go test steps' 50 and more", checked)
	}
}

// TestCIPatternsPlanted shows the check failing on each alternative that
// names a test the step's packages do not declare, and passing the others:
// a subtest pattern is matched on its first level, and -C runs the step in
// the benchmark's module.
func TestCIPatternsPlanted(t *testing.T) {
	m, err := repoModules()
	if err != nil {
		t.Fatal(err)
	}
	yml := `
jobs:
  test:
    steps:
      - name: planted
        run: |
          GOMAXPROCS=2 go test -count=1 -run 'TestCIPatternsMatch|TestNoSuchTest/sub' . ./internal/cache
          go test -run=^$ -bench '^(BenchmarkFileNVRAMStore|BenchmarkNoSuchBench)$' ./internal/core
          go test -C bench -run 'TestPacerTimesFromDueInstant|TestDeadDeclsFixture' ./...
`
	problems, checked := checkCIPatterns(yml, m)
	want := []string{
		`step "planted": -run alternative "TestNoSuchTest" matches no test in . ./internal/cache`,
		`step "planted": -bench alternative "BenchmarkNoSuchBench$" matches no benchmark in ./internal/core`,
		`step "planted": -run alternative "TestDeadDeclsFixture" matches no test in bench: ./...`,
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") || checked != 6 {
		t.Errorf("%d alternatives checked, problems:\n\t%s\nwant 6 and:\n\t%s",
			checked, strings.Join(problems, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// checkCIPatterns reads every go test command of the workflow's run steps
// and returns one problem for each -run, -bench or -fuzz alternative that
// matches no Test (or Example or Fuzz), Benchmark or Fuzz function
// declared in the test files of the packages the command names, with the
// number of alternatives checked. An alternative is a piece of the
// pattern's first level (what comes before a subtest '/') between '|'s,
// its parentheses dropped; "^$", which runs nothing on purpose, is skipped.
func checkCIPatterns(yml string, m *loaded) (problems []string, checked int) {
	step := ""
	for _, cmd := range runCommands(yml) {
		if strings.HasPrefix(cmd, "\x00") {
			step = cmd[1:]
			continue
		}
		words := shellWords(cmd)
		for i := 0; i+1 < len(words); i++ {
			if words[i] != "go" || words[i+1] != "test" {
				continue
			}
			dir, pkgs, patterns := goTestArgs(words[i+2:])
			decls := testDecls(m, dir, pkgs)
			where := strings.Join(pkgs, " ")
			if dir != "." {
				where = dir + ": " + where
			}
			for _, p := range patterns {
				for _, alt := range alternatives(p.value) {
					checked++
					re, err := regexp.Compile(alt)
					if err != nil {
						problems = append(problems, fmt.Sprintf("step %q: -%s alternative %q: %v", step, p.flag, alt, err))
						continue
					}
					if !slices.ContainsFunc(decls, func(name string) bool { return p.kind(name) && re.MatchString(name) }) {
						problems = append(problems, fmt.Sprintf("step %q: -%s alternative %q matches no %s in %s", step, p.flag, alt, p.noun(), where))
					}
				}
			}
		}
	}
	return problems, checked
}

// runCommands returns the shell lines of the workflow's run steps, each
// step's name first as a line starting with a NUL byte. A line continued
// with a backslash is joined to the next.
func runCommands(yml string) []string {
	var out []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "- "))
		if name, ok := strings.CutPrefix(trimmed, "name: "); ok {
			out = append(out, "\x00"+strings.Trim(name, `"'`))
			continue
		}
		value, ok := strings.CutPrefix(trimmed, "run: ")
		if !ok {
			continue
		}
		if value != "|" && value != "|-" {
			out = append(out, value)
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " -"))
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			for strings.HasSuffix(next, "\\") && i+1 < len(lines) {
				i++
				next = strings.TrimSuffix(next, "\\") + " " + strings.TrimSpace(lines[i])
			}
			out = append(out, next)
		}
	}
	return out
}

// shellWords splits a shell line into words, quotes removed. The operators
// that end a command (| & ; and parentheses) are words of their own.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, word.String())
			word.Reset()
			inWord = false
		}
	}
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\'' || c == '"':
			end := strings.IndexByte(line[i+1:], c)
			if end < 0 {
				end = len(line) - i - 1
			}
			word.WriteString(line[i+1 : i+1+end])
			inWord = true
			i += end + 1
		case c == ' ' || c == '\t':
			flush()
		case strings.IndexByte("|&;()", c) >= 0:
			flush()
			words = append(words, string(c))
		case c == '#' && !inWord:
			flush()
			return words
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return words
}

// ciPattern is one -run, -bench or -fuzz value.
type ciPattern struct{ flag, value string }

func (p ciPattern) kind(name string) bool {
	switch p.flag {
	case "bench":
		return strings.HasPrefix(name, "Benchmark")
	case "fuzz":
		return strings.HasPrefix(name, "Fuzz")
	}
	return strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Example") || strings.HasPrefix(name, "Fuzz")
}

func (p ciPattern) noun() string {
	switch p.flag {
	case "bench":
		return "benchmark"
	case "fuzz":
		return "fuzz test"
	}
	return "test"
}

// goTestArgs reads the arguments after "go test": the -C directory, the
// package patterns and the -run, -bench and -fuzz values.
func goTestArgs(args []string) (dir string, pkgs []string, patterns []ciPattern) {
	dir = "."
	// Flags whose value may come as the next word.
	valued := map[string]bool{"C": true, "run": true, "bench": true, "fuzz": true, "count": true,
		"benchtime": true, "fuzztime": true, "timeout": true, "cpu": true, "o": true}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "|" || a == "&" || a == ";" || a == "(" || a == ")" || a == "-args" {
			break
		}
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		flag, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasValue && valued[flag] && i+1 < len(args) {
			i++
			value = args[i]
		}
		switch flag {
		case "C":
			dir = value
		case "run", "bench", "fuzz":
			patterns = append(patterns, ciPattern{flag, value})
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return dir, pkgs, patterns
}

// alternatives splits a pattern's first level at its '|'s.
func alternatives(pattern string) []string {
	first, _, _ := strings.Cut(pattern, "/")
	var alts []string
	for _, alt := range strings.Split(first, "|") {
		alt = strings.NewReplacer("(", "", ")", "").Replace(alt)
		if alt != "^$" && alt != "" {
			alts = append(alts, alt)
		}
	}
	return alts
}

// testDecls returns the names of the functions declared at the top level
// of the test files of the packages that go test, run in dir, takes the
// patterns to name. Those are packages of dir's module only.
func testDecls(m *loaded, dir string, patterns []string) []string {
	dir = path.Clean(filepath.ToSlash(dir))
	var names []string
	for _, p := range m.order {
		if path.Clean(filepath.ToSlash(m.moduleOf(p.path).dir)) != dir {
			continue
		}
		pkgDir := filepath.ToSlash(p.dir)
		if !slices.ContainsFunc(patterns, func(pat string) bool {
			rel := path.Join(dir, pat)
			if tree, all := strings.CutSuffix(rel, "/..."); all || rel == "..." {
				if rel == "..." {
					tree = "."
				}
				return tree == "." || pkgDir == tree || strings.HasPrefix(pkgDir, tree+"/")
			}
			return pkgDir == rel
		}) {
			continue
		}
		for _, f := range p.testFiles {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
