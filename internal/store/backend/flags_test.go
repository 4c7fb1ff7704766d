package backend_test

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"mlcache/internal/store/backend"
)

// s3Config parses args into a fresh FlagSet's -s3-* flags and returns
// their Config.
func s3Config(t *testing.T, insecure bool, args ...string) (backend.S3Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := backend.RegisterS3Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Config(insecure)
}

func TestS3FlagsConfig(t *testing.T) {
	t.Setenv("MLCA_S3_ACCESS_KEY", "ENVKEY")
	t.Setenv("MLCA_S3_SECRET_KEY", "envsecret")
	endpoint := []string{"-s3-endpoint", "http://127.0.0.1:9444", "-s3-bucket", "traces"}

	// No endpoint names no bucket, whatever the environment holds.
	if cfg, err := s3Config(t, true); err != nil || !reflect.DeepEqual(cfg, backend.S3Config{}) {
		t.Fatalf("no flags: %+v, %v; want the zero config", cfg, err)
	}

	// Every other -s3-* flag needs the endpoint.
	for _, name := range []string{"bucket", "prefix", "region", "access-key", "secret-key"} {
		_, err := s3Config(t, false, "-s3-"+name, "x")
		if err == nil || !strings.Contains(err.Error(), "-s3-"+name+" needs -s3-endpoint") {
			t.Errorf("-s3-%s alone: %v", name, err)
		}
	}

	// The environment fills only the credential flags left empty.
	cfg, err := s3Config(t, false, append(endpoint, "-s3-prefix", "p/", "-s3-region", "eu-west-1")...)
	if err != nil {
		t.Fatal(err)
	}
	want := backend.S3Config{
		Endpoint: "http://127.0.0.1:9444", Bucket: "traces", Prefix: "p/", Region: "eu-west-1",
		AccessKey: "ENVKEY", SecretKey: "envsecret",
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("env credentials: got %+v, want %+v", cfg, want)
	}
	cfg, err = s3Config(t, false, append(endpoint, "-s3-access-key", "FLAGKEY")...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AccessKey != "FLAGKEY" || cfg.SecretKey != "envsecret" {
		t.Errorf("flag access key: got %q/%q, want FLAGKEY/envsecret", cfg.AccessKey, cfg.SecretKey)
	}

	// Insecure is carried through.
	cfg, err = s3Config(t, true, endpoint...)
	if err != nil || !cfg.Insecure {
		t.Errorf("insecure: %+v, %v", cfg, err)
	}
	if cfg, err = s3Config(t, false, endpoint...); err != nil || cfg.Insecure {
		t.Errorf("secure: %+v, %v", cfg, err)
	}
}
