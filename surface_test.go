package smartbadge

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/ckpt"
	"smartbadge/internal/client"
	"smartbadge/internal/dpm"
	"smartbadge/internal/faults/fsfault"
	"smartbadge/internal/faults/netfault"
	"smartbadge/internal/fleet"
	"smartbadge/internal/mdp"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/server"
	"smartbadge/internal/sim"
	"smartbadge/internal/thrcache"
	"smartbadge/internal/tismdp"
	"smartbadge/internal/wlan"
	"smartbadge/internal/workload"
)

// configSurface pins the module's configuration surface: the exported
// fields of every exported Config, Options, GenerateOptions and Plan
// struct, and the parameters of the constructors that used to take tuning
// values. Every settable value doubles the configurations tests must
// cover, so a rise fails; a fall must update the table.
var configSurface = map[string]int{
	"changepoint.Config":       8,
	"ckpt.Options":             2,
	"client.Config":            5,
	"fleet.Config":             7,
	"fsfault.Plan":             3,
	"mdp.Config":               6,
	"netfault.Plan":            5,
	"sa1100.Config":            7,
	"server.Config":            9,
	"sim.Config":               13,
	"smartbadge.Options":       13,
	"tismdp.Config":            4,
	"wlan.Config":              6,
	"workload.GenerateOptions": 1,
	"dpm.NewGuard":             1,
	"thrcache.New":             1,
	"thrcache.NewFS":           2,
}

func TestConfigurationSurface(t *testing.T) {
	structs := map[string]any{
		"changepoint.Config":       changepoint.Config{},
		"ckpt.Options":             ckpt.Options{},
		"client.Config":            client.Config{},
		"fleet.Config":             fleet.Config{},
		"fsfault.Plan":             fsfault.Plan{},
		"mdp.Config":               mdp.Config{},
		"netfault.Plan":            netfault.Plan{},
		"sa1100.Config":            sa1100.Config{},
		"server.Config":            server.Config{},
		"sim.Config":               sim.Config{},
		"smartbadge.Options":       Options{},
		"tismdp.Config":            tismdp.Config{},
		"wlan.Config":              wlan.Config{},
		"workload.GenerateOptions": workload.GenerateOptions{},
	}
	funcs := map[string]any{
		"dpm.NewGuard":   dpm.NewGuard,
		"thrcache.New":   thrcache.New,
		"thrcache.NewFS": thrcache.NewFS,
	}
	got := map[string]int{}
	fields := 0
	for name, v := range structs {
		typ, n := reflect.TypeOf(v), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		got[name] = n
		fields += n
	}
	for name, f := range funcs {
		got[name] = reflect.TypeOf(f).NumIn()
	}
	for name, want := range configSurface {
		switch n, ok := got[name]; {
		case !ok:
			t.Errorf("%s is in the table but not measured", name)
		case n > want:
			t.Errorf("%s has %d settable values, up from %d: a new knob needs two callers that set different values", name, n, want)
		case n < want:
			t.Errorf("%s has %d settable values, down from %d: lower its entry in configSurface", name, n, want)
		}
	}
	for name := range got {
		if _, ok := configSurface[name]; !ok {
			t.Errorf("%s is measured but has no entry in configSurface", name)
		}
	}
	for _, name := range configStructs(t) {
		if _, ok := structs[name]; !ok {
			t.Errorf("%s is an exported config struct the gate does not measure", name)
		}
	}
	t.Logf("%d structs with %d exported fields", len(structs), fields)
}

// configStructs lists, as package.Type, every struct type named Config,
// Options, GenerateOptions or Plan declared in the module's non-test
// sources (testdata and nested modules excluded).
func configStructs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					continue
				}
				switch ts.Name.Name {
				case "Config", "Options", "GenerateOptions", "Plan":
					names = append(names, f.Name.Name+"."+ts.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
