"""Golden digests: seeded CLI runs must keep every output byte.

Each case runs one CLI invocation at a small size and fixed seed, in a
fresh working directory with a relative --out (the config header echoes
out_dir, so an absolute path would change the bytes), and compares the
SHA-256 of every file it wrote against the values checked in below.  A
change that moves any of them either fixes a bug, and says which
outputs moved and why, or is wrong.

The replay cases shrink both levels through a config file so that L2
evictions, back-invalidations and dirty write-backs all happen within a
few thousand events.
"""

import hashlib
import os

import pytest

from starcache.cli import main

KEY = "0123456789abcdeffedcba9876543210"
MODELS = ("sa-lru", "star-farr", "star-news")
SMALL_CACHES = "l1_lines = 64\nl1_assoc = 4\nl2_lines = 256\nl2_assoc = 4\n"


def _cases() -> dict:
    cases = {}
    for model in MODELS:
        m = ["--model", model]
        cases[f"attack-fr-aes-{model}"] = [
            "attack", "fr-aes", *m, "--trials", "64", "--seed", "5",
            "--key", KEY]
        cases[f"attack-pp-aes-{model}"] = [
            "attack", "pp-aes", *m, "--trials", "64", "--seed", "6",
            "--key", KEY]
        cases[f"attack-fr-spectre-{model}"] = [
            "attack", "fr-spectre", *m, "--trials", "4", "--seed", "7",
            "--secret", "99", "--cross-domain"]
        cases[f"attack-pp-spectre-{model}"] = [
            "attack", "pp-spectre", *m, "--trials", "3", "--seed", "8",
            "--secret", "200"]
        cases[f"attack-fr-spectre-skip-{model}"] = [
            "attack", "fr-spectre", *m, "--trials", "4", "--seed", "15",
            "--secret", "42", "--skip-wrong-path"]
        cases[f"attack-pp-spectre-skip-{model}"] = [
            "attack", "pp-spectre", *m, "--trials", "3", "--seed", "16",
            "--secret", "17", "--cross-domain", "--skip-wrong-path"]
        cases[f"sweep-fr-spectre-{model}"] = [
            "sweep", "fr-spectre", *m, "--trials", "1", "--seed", "9"]
        cases[f"sweep-pp-spectre-{model}"] = [
            "sweep", "pp-spectre", *m, "--trials", "1", "--seed", "10"]
        for profile in ("uniform-random", "pointer-chase", "conflict-heavy",
                        "spec-mix"):
            cases[f"replay-{profile}-{model}"] = [
                "replay", "--synth", profile, *m, "--events", "8000",
                "--seed", "11", "--footprint", "1024", "--domains", "3",
                "--store-fraction", "0.3", "--p-squash", "0.25",
                "--config", "small.cfg"]
    # the noisy prime-probe path adds gaussian jitter per probe load
    cases["attack-pp-aes-noise-star-news"] = [
        "attack", "pp-aes", "--model", "star-news", "--trials", "16",
        "--seed", "12", "--noise-sigma", "2.5", "--key", KEY]
    cases["attack-fr-aes-noise-sa-lru"] = [
        "attack", "fr-aes", "--model", "sa-lru", "--trials", "16",
        "--seed", "13", "--noise-sigma", "2.5", "--key", KEY]
    cases["replay-sweep-k-star-news"] = [
        "replay", "--synth", "conflict-heavy", "--model", "star-news",
        "--events", "3000", "--seed", "14", "--sweep-k", "0,2,4",
        "--config", "small.cfg"]
    return cases


CASES = _cases()

GOLDEN = {
    "attack-fr-aes-noise-sa-lru": {
        "fr-aes-sa-lru-matrix.csv":
            "2081c9419bb7fbede970a64424b542c129f7f916624e1fbdeec78f4f7fb364ea",
        "fr-aes-sa-lru-summary.json":
            "249ac6052548b56ace41fc2ae905753c869419447a4b3124624012ad75587b86",
    },
    "attack-fr-aes-sa-lru": {
        "fr-aes-sa-lru-matrix.csv":
            "66e40c6a87b60d84616310546232f3391f612c303ef4329db8d6806346b80cc1",
        "fr-aes-sa-lru-summary.json":
            "6d6cd204153bb4a4228d8c49b37073e1671f348d2e2ce2eee885dc5f48e3719c",
    },
    "attack-fr-aes-star-farr": {
        "fr-aes-star-farr-matrix.csv":
            "55e4413e5f1b6932deb85e4cc4358b9f8b82dda9d815b11eac703ef5ea47b7f6",
        "fr-aes-star-farr-summary.json":
            "a080fef326fdf2fa882b3ada14daeeee944311d9677d15f641330a8f54ff8fb2",
    },
    "attack-fr-aes-star-news": {
        "fr-aes-star-news-matrix.csv":
            "333bf311afa9365f3af3d24cdfe0d40fd4b75d536203df0f64c997a42698c09f",
        "fr-aes-star-news-summary.json":
            "d82f8f5ec3bd69880d997f5e1cf2275b787269d640ba1ccb0548dbdbc55c9a37",
    },
    "attack-fr-spectre-sa-lru": {
        "fr-spectre-sa-lru-matrix.csv":
            "04428c0a3e20c47bb407cf7c8a4bb3393ad16c661a35bc8bffed35758e607547",
        "fr-spectre-sa-lru-summary.json":
            "9070c3749800c9cef7345e7d851b53176cd7c553bdf5a5d439264a5c9ad646a4",
    },
    "attack-fr-spectre-skip-sa-lru": {
        "fr-spectre-sa-lru-matrix.csv":
            "26f289d830a9585d1f8b2664d0280d4a3448d99c005980d9deef3edd6e561bd4",
        "fr-spectre-sa-lru-summary.json":
            "42a5e47915d98dbf4c8f6feb53698364989638b4ebedd35cea53bb9bd58884f7",
    },
    "attack-fr-spectre-skip-star-farr": {
        "fr-spectre-star-farr-matrix.csv":
            "7ad069b2f9fd5a8baa8dde5cee4c9f6912031646377ce1552a62c67eeee15022",
        "fr-spectre-star-farr-summary.json":
            "157836a88954f46ff28960ca87d15d9ae1e9b51df0db9e0a8b252c68c59f0e09",
    },
    "attack-fr-spectre-skip-star-news": {
        "fr-spectre-star-news-matrix.csv":
            "0ab153c99f37806a609551ba1183e9cddfdb628effc7ed17ba386005222f08b0",
        "fr-spectre-star-news-summary.json":
            "f49954739bc2829615e0cb183cabcf621e34f580c67af4c6813b3a0a7bbb94ea",
    },
    "attack-fr-spectre-star-farr": {
        "fr-spectre-star-farr-matrix.csv":
            "fd4fa792eeb34d118a2d070e9f8ceb9e3b15d0dddef9db8533fbdf8f60fd6381",
        "fr-spectre-star-farr-summary.json":
            "77d0a0f00ea932f4cebd3a5889de472e208fceee2ade05d5f7cd815ee67cda00",
    },
    "attack-fr-spectre-star-news": {
        "fr-spectre-star-news-matrix.csv":
            "6198c97a7e4621604ddfc0b9dfbdb99bb70d551832021b77026094804786c00e",
        "fr-spectre-star-news-summary.json":
            "3b0fe70d947ff921617add2efb940d8e846937809b9ab0842c3a2857cede331a",
    },
    "attack-pp-aes-noise-star-news": {
        "pp-aes-star-news-matrix.csv":
            "4274b6caf0ff44fb2f67864727aedb487ddfab2c4ec19132bc726e828da10a9c",
        "pp-aes-star-news-summary.json":
            "9affe94b70a853bd1e04bfe845697c1df376709eb9db7594ae1f6939b8f860eb",
    },
    "attack-pp-aes-sa-lru": {
        "pp-aes-sa-lru-matrix.csv":
            "daee9564c1439300ef58d76c763516418e7473a26e9fd15cfa88046ba98df6a2",
        "pp-aes-sa-lru-summary.json":
            "402e4bede5b741ca786395265782899b778451b003dc0f186de803e046a3655a",
    },
    "attack-pp-aes-star-farr": {
        "pp-aes-star-farr-matrix.csv":
            "3ff510e43646370f04141862defdcc42d27a095fbebd4725127c7f517b01bde1",
        "pp-aes-star-farr-summary.json":
            "f01fcb6b54c43700299824fc29f5a416a653bb27ebeec263ed3e937c4b4cc1aa",
    },
    "attack-pp-aes-star-news": {
        "pp-aes-star-news-matrix.csv":
            "677ac40f79bb926faf3ee2e663576ef98521a4cdcf6093b02bce14c89bae6365",
        "pp-aes-star-news-summary.json":
            "2f48b8101e809665b40c704b975bf391942fe17164007824bebdf0c3298b98a3",
    },
    "attack-pp-spectre-sa-lru": {
        "pp-spectre-sa-lru-matrix.csv":
            "222ba52cd4ad4e193c6fa138a7054c462a832334a4b984243029e21a438636f8",
        "pp-spectre-sa-lru-summary.json":
            "d01b9df503905b174ad3f151371cae575d6afac21c08d8646f3f44a450e172bd",
    },
    "attack-pp-spectre-skip-sa-lru": {
        "pp-spectre-sa-lru-matrix.csv":
            "b58c5998d543b5eb011d8f5884e92fb5a6dff0e6b7aed4cf756698475295ae80",
        "pp-spectre-sa-lru-summary.json":
            "88e3d8af858264f56b62e10b33cc14f4efcbc40c9444069dd96875002a02df77",
    },
    "attack-pp-spectre-skip-star-farr": {
        "pp-spectre-star-farr-matrix.csv":
            "2e34c32090228a23111ee239676cf2d23bb66f874effae3de0a5f5a6087cb72b",
        "pp-spectre-star-farr-summary.json":
            "79f7f49c2c03597cd33789aedda26ae73558a1e9dbc31796af682f9204c0c542",
    },
    "attack-pp-spectre-skip-star-news": {
        "pp-spectre-star-news-matrix.csv":
            "eb9bac93efec04db571b9b8290f6a3fa947fa01aa28b9845b0fc355378fe01a7",
        "pp-spectre-star-news-summary.json":
            "d55bae8f3d9914a0a6be4e2a4a51c4e0ae99fec863a9c3b210ad97047917c176",
    },
    "attack-pp-spectre-star-farr": {
        "pp-spectre-star-farr-matrix.csv":
            "1b4e97f5c8b84e4936a7d5fae6840a157e82312f00d0bce2e0b2b2144234d463",
        "pp-spectre-star-farr-summary.json":
            "bd54ba260b6370922cb5a8bd7aac77a84a7083d4282c1765981f5c06d5453c22",
    },
    "attack-pp-spectre-star-news": {
        "pp-spectre-star-news-matrix.csv":
            "bf46c4763858307fed492075325202903a042a0397100c9bae0e6c7d68713fe8",
        "pp-spectre-star-news-summary.json":
            "d535776348fbf1533819a86aab873ee98f3fb0c09c34a83c898eb16f7eb8d578",
    },
    "replay-conflict-heavy-sa-lru": {
        "replay-sa-lru.csv":
            "2c0d8a27375435e487007d9f7b0c74a0f5ae2dbcca9e298a76876045bc375e64",
    },
    "replay-conflict-heavy-star-farr": {
        "replay-star-farr.csv":
            "2040c6ee87514f3d29d30fa1219dd9408ff8b2a4576ac17a2e701844b6a68bf7",
    },
    "replay-conflict-heavy-star-news": {
        "replay-star-news.csv":
            "182c04b3f83ff7aaca0f9efa0bc8460b83f8a1450d50dab769389d253b407a31",
    },
    "replay-pointer-chase-sa-lru": {
        "replay-sa-lru.csv":
            "1471e9e9458a952b4d1ebff05c9ffb91e5cc90d8bd71505423fbba485b76373c",
    },
    "replay-pointer-chase-star-farr": {
        "replay-star-farr.csv":
            "d7e9683214eea8dca39e7869e2638e67d3fc34707ae9fc2d296d6bc303aeb9b8",
    },
    "replay-pointer-chase-star-news": {
        "replay-star-news.csv":
            "034857e078aa9e4c6a951ef1c77e0ee0cd99a82e6131f94ff95e4698251aafca",
    },
    "replay-spec-mix-sa-lru": {
        "replay-sa-lru.csv":
            "47270bde4d9d36d28010c57bcfd91349ce2aafa6adb0faeaf74a922fd7675e1b",
    },
    "replay-spec-mix-star-farr": {
        "replay-star-farr.csv":
            "e42ff9a11a9fb08438576c1d49e2c8aa0fed3125fabfce23ae78d9b3c2115552",
    },
    "replay-spec-mix-star-news": {
        "replay-star-news.csv":
            "c253004d3c4c4b9cc4fc9a682e9bb6e91d568e063b682a7295a7ea1581fd899c",
    },
    "replay-sweep-k-star-news": {
        "replay-star-news-ksweep.csv":
            "b208831d128213e0ca36879cbdbeed20c227bcdde5d0e0aa5c2f06a0b91005ef",
    },
    "replay-uniform-random-sa-lru": {
        "replay-sa-lru.csv":
            "d9d14aa83c80ecad2a1753f8810aee1a5eb099b54b258c42cf6de34f29cddc59",
    },
    "replay-uniform-random-star-farr": {
        "replay-star-farr.csv":
            "e165137bac2ecebd3d13cd12f6edb0473b8d54dead8a926295e6ad83fc377d73",
    },
    "replay-uniform-random-star-news": {
        "replay-star-news.csv":
            "004aeab14600acd4558a19a7c045606a8762a6f678538396beba9c34c8f73c96",
    },
    "sweep-fr-spectre-sa-lru": {
        "fr-spectre-sweep-sa-lru-matrix.csv":
            "56184b5bae138c594b723237d6f5d9ac29924200fdaaa0142507e14daf049dd0",
        "fr-spectre-sweep-sa-lru-secrets.csv":
            "490a1ee24e6d64eff645160bda643004048942e50c11e69d493fdd80b9320052",
        "fr-spectre-sweep-sa-lru-summary.json":
            "5d58f508224fe04ed6ca43c9d2341daad77599b9e338bccf31844dbc852c028b",
    },
    "sweep-fr-spectre-star-farr": {
        "fr-spectre-sweep-star-farr-matrix.csv":
            "fb3fb396c5ae2eaa319d387d3df19602482e54c6576d7f6bab23249179ee2822",
        "fr-spectre-sweep-star-farr-secrets.csv":
            "244e9930b3cf3f2eff093f64c0ee8c16d49cbe285c070a6e0c37a4cb3e044220",
        "fr-spectre-sweep-star-farr-summary.json":
            "db5eed03f52e9998867013b81dfcd95eb34fa0ae69bb413d0d848e2e0b06eac8",
    },
    "sweep-fr-spectre-star-news": {
        "fr-spectre-sweep-star-news-matrix.csv":
            "10a0bbafc8f320e7a28a7ec84533cbeefd688296318882f7aab1fd8a13c17a2a",
        "fr-spectre-sweep-star-news-secrets.csv":
            "5e605633994ad6f9a2e1afd6eef4bea91c87da127454815d4c839223a94d30b5",
        "fr-spectre-sweep-star-news-summary.json":
            "7e4d42d4481403f699948b7f6322e4492b5db7c645fc1c2c2cc4dc25f2eb480a",
    },
    "sweep-pp-spectre-sa-lru": {
        "pp-spectre-sweep-sa-lru-matrix.csv":
            "3f59a2b89cfef26f2fc05b32dc38a1548a8713adb14796da99926dbded4dc8c0",
        "pp-spectre-sweep-sa-lru-secrets.csv":
            "2311edfd188533070ec6020590e2d10ebe5220df57b2024092dce7721799b60d",
        "pp-spectre-sweep-sa-lru-summary.json":
            "24f2b73777cda8413814a6d996c2d87455ed74b3888eb55361c6bfbf479fb8de",
    },
    "sweep-pp-spectre-star-farr": {
        "pp-spectre-sweep-star-farr-matrix.csv":
            "49d716aae664f7cb8efc48b76947756ac82b5b00531a4c47703a4170885a159b",
        "pp-spectre-sweep-star-farr-secrets.csv":
            "c1fc5f3a3cee11e9bbdec140495fdceedd32afcf41cbbe321db6716802b53ef5",
        "pp-spectre-sweep-star-farr-summary.json":
            "51e2747de62415657e4b87e4e9fadfd6a9365154c273eff4d5e38ed2a2720acd",
    },
    "sweep-pp-spectre-star-news": {
        "pp-spectre-sweep-star-news-matrix.csv":
            "584cb0d1aa5213eb2712e85229b3df46056efcde2322bf9e2e3bf61d5c1e0ec5",
        "pp-spectre-sweep-star-news-secrets.csv":
            "a001449e1462f01d2c90a0ad15a9bfba4bdede5a0ecbba531f1d3ced647d3454",
        "pp-spectre-sweep-star-news-summary.json":
            "efcf66d0225f36fa80a0284d1367bf1970cd2cfd06385a655959831beb5a23de",
    },
}


def run_case(name: str) -> dict:
    """Run one case in the current directory; file name -> SHA-256."""
    with open("small.cfg", "w", encoding="utf-8") as fh:
        fh.write(SMALL_CACHES)
    assert main(CASES[name] + ["--out", "out"]) == 0
    digests = {}
    for fname in sorted(os.listdir("out")):
        with open(os.path.join("out", fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("STARCACHE_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    assert run_case(name) == GOLDEN[name]
