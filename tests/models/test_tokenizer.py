"""Tests for the byte tokenizer."""

from repro.models.tokenizer import ByteTokenizer


class TestByteTokenizer:
    def test_roundtrip_ascii(self):
        tok = ByteTokenizer()
        text = "product quantization"
        assert tok.decode(tok.encode(text, add_bos=False)) == text

    def test_roundtrip_unicode(self):
        tok = ByteTokenizer()
        text = "kv-céche ≈ 4 bits"
        assert tok.decode(tok.encode(text, add_bos=False)) == text

    def test_specials(self):
        tok = ByteTokenizer()
        ids = tok.encode("a", add_bos=True, add_eos=True)
        assert ids[0] == ByteTokenizer.BOS and ids[-1] == ByteTokenizer.EOS
        assert tok.vocab_size == 258

    def test_decode_skips_specials(self):
        tok = ByteTokenizer()
        assert tok.decode([ByteTokenizer.BOS, ord("h"), ord("i"), ByteTokenizer.EOS]) == "hi"
