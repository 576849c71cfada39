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
        cases[f"sweep-fr-spectre-{model}"] = [
            "sweep", "fr-spectre", *m, "--trials", "1", "--seed", "9"]
        for profile in ("uniform-random", "pointer-chase", "conflict-heavy",
                        "spec-mix"):
            cases[f"replay-{profile}-{model}"] = [
                "replay", "--synth", profile, *m, "--events", "8000",
                "--seed", "11", "--footprint", "1024", "--domains", "3",
                "--store-fraction", "0.3", "--p-squash", "0.25",
                "--config", "small.cfg"]
    cases["sweep-pp-spectre-star-farr"] = [
        "sweep", "pp-spectre", "--model", "star-farr", "--trials", "1",
        "--seed", "10"]
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
            "ce9a9b94a88b1edde8fc09c32f87aa03d8171ca256be4151c40ea59ad07f261f",
        "fr-aes-sa-lru-summary.json":
            "249ac6052548b56ace41fc2ae905753c869419447a4b3124624012ad75587b86",
    },
    "attack-fr-aes-sa-lru": {
        "fr-aes-sa-lru-matrix.csv":
            "9270480a94469befc40a743fecd945c1634b0588913e832b4809725618affb54",
        "fr-aes-sa-lru-summary.json":
            "6d6cd204153bb4a4228d8c49b37073e1671f348d2e2ce2eee885dc5f48e3719c",
    },
    "attack-fr-aes-star-farr": {
        "fr-aes-star-farr-matrix.csv":
            "7933594517d35149af629b5d970dc2cf57bf2509ea1dcf1223dcb20419d779e0",
        "fr-aes-star-farr-summary.json":
            "a080fef326fdf2fa882b3ada14daeeee944311d9677d15f641330a8f54ff8fb2",
    },
    "attack-fr-aes-star-news": {
        "fr-aes-star-news-matrix.csv":
            "805d13fb855dc2ba988c9bb52d4722fd9e254c05ea4674bb166a2e3e39c1c936",
        "fr-aes-star-news-summary.json":
            "d82f8f5ec3bd69880d997f5e1cf2275b787269d640ba1ccb0548dbdbc55c9a37",
    },
    "attack-fr-spectre-sa-lru": {
        "fr-spectre-sa-lru-matrix.csv":
            "a6e99fa899283dc30cc2eafd43d5423a504076af74b006724deb759656836b45",
        "fr-spectre-sa-lru-summary.json":
            "9070c3749800c9cef7345e7d851b53176cd7c553bdf5a5d439264a5c9ad646a4",
    },
    "attack-fr-spectre-star-farr": {
        "fr-spectre-star-farr-matrix.csv":
            "f04f81d60ef226250f55d74b9d5d8b33e0522ca678718af80a9706413cc70c05",
        "fr-spectre-star-farr-summary.json":
            "77d0a0f00ea932f4cebd3a5889de472e208fceee2ade05d5f7cd815ee67cda00",
    },
    "attack-fr-spectre-star-news": {
        "fr-spectre-star-news-matrix.csv":
            "8d5ad4139f9d3bc41025960fe7c2a83329831c131d083d3399c03b5dd0bc4e3a",
        "fr-spectre-star-news-summary.json":
            "3b0fe70d947ff921617add2efb940d8e846937809b9ab0842c3a2857cede331a",
    },
    "attack-pp-aes-noise-star-news": {
        "pp-aes-star-news-matrix.csv":
            "87a5dd0d1a5c4c8793bda884867dccb21afb536d1839b1921dabf34cd30a9cff",
        "pp-aes-star-news-summary.json":
            "9affe94b70a853bd1e04bfe845697c1df376709eb9db7594ae1f6939b8f860eb",
    },
    "attack-pp-aes-sa-lru": {
        "pp-aes-sa-lru-matrix.csv":
            "750325de74f8ea98dab16ed9050ad89909331aeca5546692c7c452dc263d2e91",
        "pp-aes-sa-lru-summary.json":
            "402e4bede5b741ca786395265782899b778451b003dc0f186de803e046a3655a",
    },
    "attack-pp-aes-star-farr": {
        "pp-aes-star-farr-matrix.csv":
            "0ecd381d7f4fb2a6fd77490d1c3748d1fc3ee0cf05a07ff89967d354a4a8c41f",
        "pp-aes-star-farr-summary.json":
            "f01fcb6b54c43700299824fc29f5a416a653bb27ebeec263ed3e937c4b4cc1aa",
    },
    "attack-pp-aes-star-news": {
        "pp-aes-star-news-matrix.csv":
            "9f0a4071f8b9fa683624ddfb86ec27cb3fc2f6b1503d9acf0ef7af957014b59c",
        "pp-aes-star-news-summary.json":
            "2f48b8101e809665b40c704b975bf391942fe17164007824bebdf0c3298b98a3",
    },
    "attack-pp-spectre-sa-lru": {
        "pp-spectre-sa-lru-matrix.csv":
            "441449dd8f7a40cb28ffb3cec368c8eeced411fc7a9ef427476ef24abb82c277",
        "pp-spectre-sa-lru-summary.json":
            "d01b9df503905b174ad3f151371cae575d6afac21c08d8646f3f44a450e172bd",
    },
    "attack-pp-spectre-star-farr": {
        "pp-spectre-star-farr-matrix.csv":
            "57db4a328fd504ec4637119b95868ba59e7f7ebde6968d7d5ed983459ad15d61",
        "pp-spectre-star-farr-summary.json":
            "bd54ba260b6370922cb5a8bd7aac77a84a7083d4282c1765981f5c06d5453c22",
    },
    "attack-pp-spectre-star-news": {
        "pp-spectre-star-news-matrix.csv":
            "369944edb2034de2966e0b8691315c060b82448fe6e93728edddcba96f4a060d",
        "pp-spectre-star-news-summary.json":
            "d535776348fbf1533819a86aab873ee98f3fb0c09c34a83c898eb16f7eb8d578",
    },
    "replay-conflict-heavy-sa-lru": {
        "replay-sa-lru.csv":
            "7b5f4a49f9932d3bd11d11017bcda79a94465726c8531b85d65429eb28a83423",
    },
    "replay-conflict-heavy-star-farr": {
        "replay-star-farr.csv":
            "35904483bdd8a839e3735462537239630085ca6283c3f59b91af15b3972459d5",
    },
    "replay-conflict-heavy-star-news": {
        "replay-star-news.csv":
            "1ca51bd097d0a6221bf4bdbfdb53debe5784eef573a179865c68869442816ebd",
    },
    "replay-pointer-chase-sa-lru": {
        "replay-sa-lru.csv":
            "f4736b67fe12307c38e8a6d88d10e1690659c778fe39e97ad9653fec32b26447",
    },
    "replay-pointer-chase-star-farr": {
        "replay-star-farr.csv":
            "c2654decd485c20f1a6c99f56e6719e68ed4c247d06a8e3df86a5383b654f741",
    },
    "replay-pointer-chase-star-news": {
        "replay-star-news.csv":
            "84541caf4b75d99b6a0761c930db90faa4789a6eef1b42e981eb97ad7506823b",
    },
    "replay-spec-mix-sa-lru": {
        "replay-sa-lru.csv":
            "adf9ee85ec9f34baed0c39eb6f567ab3d915b24217f95addbc96bcbf5b32928d",
    },
    "replay-spec-mix-star-farr": {
        "replay-star-farr.csv":
            "6e85ebcc2f7a442872013ae89e6080944f75cabb0b1fe09062adc7c3d02b8fa9",
    },
    "replay-spec-mix-star-news": {
        "replay-star-news.csv":
            "5a779ba6ac5233fa5a283ee3f922b9bcd83c58c6f697f375a4cfa8b8dfbbb670",
    },
    "replay-sweep-k-star-news": {
        "replay-star-news-ksweep.csv":
            "c1582f40cb0a124203bb926d5e176bf09bc55e04fa4ba89f1ac28080dd38d379",
    },
    "replay-uniform-random-sa-lru": {
        "replay-sa-lru.csv":
            "57eec6afbe2b7a08200423112c0c4b43c8f0cb96610c0ecbb53ade735d1421ee",
    },
    "replay-uniform-random-star-farr": {
        "replay-star-farr.csv":
            "9660061f6911c5f5f2c9e61d390a0c67d0f118f7c1de406063e79e5f44e04f7b",
    },
    "replay-uniform-random-star-news": {
        "replay-star-news.csv":
            "28b7c7a489e319a2aaec35d882fa6d303e8f13ec78945cb5e61054a7dfd88190",
    },
    "sweep-fr-spectre-sa-lru": {
        "fr-spectre-sweep-sa-lru-matrix.csv":
            "217e50be8c67d712a7be7688a3450a7fee3e1efe35137b7f62ee0d3db5fbae05",
        "fr-spectre-sweep-sa-lru-secrets.csv":
            "892a57ecfb9a7810ca20bb62b046fa4250eabe89357b31f29838cc3f942a2de2",
        "fr-spectre-sweep-sa-lru-summary.json":
            "5d58f508224fe04ed6ca43c9d2341daad77599b9e338bccf31844dbc852c028b",
    },
    "sweep-fr-spectre-star-farr": {
        "fr-spectre-sweep-star-farr-matrix.csv":
            "824d8a03181463fb572446735bd3a4f54c41efa694642f632c0868c188d2d170",
        "fr-spectre-sweep-star-farr-secrets.csv":
            "5e214f36fabcd07946418cafccaba68ea9283ec00c7703d0c97f3c882ed76e35",
        "fr-spectre-sweep-star-farr-summary.json":
            "db5eed03f52e9998867013b81dfcd95eb34fa0ae69bb413d0d848e2e0b06eac8",
    },
    "sweep-fr-spectre-star-news": {
        "fr-spectre-sweep-star-news-matrix.csv":
            "52585a58ef39fae43a7831ca2e85ea499f51556271c985e97e122051ff7622e6",
        "fr-spectre-sweep-star-news-secrets.csv":
            "759def653c0400ddb4d70c338948f3c972457d6fab7f58093b23b53cb4c7f31a",
        "fr-spectre-sweep-star-news-summary.json":
            "7e4d42d4481403f699948b7f6322e4492b5db7c645fc1c2c2cc4dc25f2eb480a",
    },
    "sweep-pp-spectre-star-farr": {
        "pp-spectre-sweep-star-farr-matrix.csv":
            "1116797b954133c9f6eb414e3f5c2db7e74d5e82a2ae866774873e673faf98be",
        "pp-spectre-sweep-star-farr-secrets.csv":
            "5cd1fc45309382171743e3fee85bc3df4e7d674c2b08cf4eb2ac568e7191207a",
        "pp-spectre-sweep-star-farr-summary.json":
            "51e2747de62415657e4b87e4e9fadfd6a9365154c273eff4d5e38ed2a2720acd",
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
