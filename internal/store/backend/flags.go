package backend

import (
	"flag"
	"fmt"
	"os"
)

// S3Flags holds the six -s3-* flags that place the artifact store in an
// S3-compatible bucket. Every binary that can reach a bucket registers
// them through RegisterS3Flags, so their names, help text and credential
// fallback are defined once.
type S3Flags struct {
	cfg S3Config
}

// RegisterS3Flags defines -s3-endpoint, -s3-bucket, -s3-prefix,
// -s3-region, -s3-access-key and -s3-secret-key on fs.
func RegisterS3Flags(fs *flag.FlagSet) *S3Flags {
	f := &S3Flags{}
	fs.StringVar(&f.cfg.Endpoint, "s3-endpoint", "", "S3-compatible endpoint URL, e.g. https://s3.example.com:9000; setting it puts the artifact store in a bucket, and every other -s3-* flag needs it")
	fs.StringVar(&f.cfg.Bucket, "s3-bucket", "", "bucket holding the artifact objects")
	fs.StringVar(&f.cfg.Prefix, "s3-prefix", "", "object key prefix inside the bucket (default mlca/)")
	fs.StringVar(&f.cfg.Region, "s3-region", "", "SigV4 signing region (default us-east-1)")
	fs.StringVar(&f.cfg.AccessKey, "s3-access-key", "", "S3 access key ID (or env MLCA_S3_ACCESS_KEY); empty = unsigned requests")
	fs.StringVar(&f.cfg.SecretKey, "s3-secret-key", "", "S3 secret key (or env MLCA_S3_SECRET_KEY; the env var keeps it out of process listings)")
	return f
}

// Config returns the bucket the flags name, with Insecure set to
// insecure. An empty -s3-endpoint names no bucket: Config returns the
// zero S3Config whatever the environment holds, or an error when another
// -s3-* flag is set. Otherwise an empty -s3-access-key or -s3-secret-key
// takes its value from MLCA_S3_ACCESS_KEY or MLCA_S3_SECRET_KEY. NewS3
// makes every other check.
func (f *S3Flags) Config(insecure bool) (S3Config, error) {
	cfg := f.cfg
	if cfg.Endpoint == "" {
		for _, fl := range []struct{ name, value string }{
			{"bucket", cfg.Bucket}, {"prefix", cfg.Prefix}, {"region", cfg.Region},
			{"access-key", cfg.AccessKey}, {"secret-key", cfg.SecretKey},
		} {
			if fl.value != "" {
				return S3Config{}, fmt.Errorf("-s3-%s needs -s3-endpoint", fl.name)
			}
		}
		return S3Config{}, nil
	}
	for env, key := range map[string]*string{"ACCESS_KEY": &cfg.AccessKey, "SECRET_KEY": &cfg.SecretKey} {
		if *key == "" {
			*key = os.Getenv("MLCA_S3_" + env)
		}
	}
	cfg.Insecure = insecure
	return cfg, nil
}
