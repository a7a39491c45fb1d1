import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bend.augment import (
    GENDER,
    attribute_space,
    augment_query,
    external_augmenter,
    mentions_attribute,
)
from bend.errors import ConfigError, EmptyQuery

FAIRFACE_RACES = (
    "White",
    "Black",
    "Latino_Hispanic",
    "East Asian",
    "Southeast Asian",
    "Indian",
    "Middle Eastern",
)


class TestAttributeSpace:
    def test_single_value_rejected(self):
        with pytest.raises(ConfigError):
            attribute_space("gender", ("male",))

    def test_duplicate_values_rejected(self):
        with pytest.raises(ConfigError):
            attribute_space("gender", ("male", "male"))

    def test_partial_terms_rejected(self):
        with pytest.raises(ConfigError):
            attribute_space(
                "gender", ("male", "female"), insertion_terms={"male": "male"}
            )

    @pytest.mark.parametrize(
        "values, terms, prompts",
        [
            pytest.param(5, None, None, id="values-number"),
            pytest.param("mf", None, None, id="values-string"),
            pytest.param(["male", 5], None, None, id="values-non-string"),
            pytest.param(
                ["male", "female"], {"male": 5, "female": "female"}, None,
                id="insertion-term-number",
            ),
            pytest.param(["male", "female"], None, ["a", "b"], id="prompts-list"),
        ],
    )
    def test_wrong_json_types_rejected(self, values, terms, prompts):
        with pytest.raises(ConfigError):
            attribute_space("gender", values, insertion_terms=terms,
                            generic_prompts=prompts)


class TestAugmentQuery:
    def test_nurse(self):
        out = augment_query("a photo of a nurse", GENDER)
        assert out.per_value_texts == {
            "male": "a photo of a male nurse",
            "female": "a photo of a female nurse",
        }

    def test_doctor(self):
        out = augment_query("a photo of a doctor", GENDER)
        assert out.per_value_texts == {
            "male": "a photo of a male doctor",
            "female": "a photo of a female doctor",
        }

    def test_prefix_fallback(self):
        out = augment_query("nurse", GENDER)
        assert out.per_value_texts == {"male": "male nurse", "female": "female nurse"}

    def test_adjective_kept_before_insertion(self):
        out = augment_query("a photo of a young nurse", GENDER)
        assert out.per_value_texts["male"] == "a photo of a young male nurse"

    def test_trailing_clause_survives(self):
        out = augment_query("a picture of a nurse in a hospital", GENDER)
        assert out.per_value_texts["female"] == "a picture of a female nurse in a hospital"

    def test_empty_rejected(self):
        with pytest.raises(EmptyQuery):
            augment_query("   ", GENDER)

    @given(st.text(min_size=1).filter(lambda t: t.strip()))
    def test_deterministic_and_contains_term(self, text):
        first = augment_query(text, GENDER)
        second = augment_query(text, GENDER)
        assert first.per_value_texts == second.per_value_texts
        for value, rewritten in first.per_value_texts.items():
            assert GENDER.insertion_terms[value] in rewritten


class TestGenericPrompts:
    def test_gender_defaults(self):
        assert GENDER.generic_prompts == {
            "male": "a photo of a man",
            "female": "a photo of a woman",
        }

    def test_race_defaults(self):
        space = attribute_space("race", FAIRFACE_RACES)
        prompts = space.generic_prompts
        assert len(prompts) == 7
        assert prompts["East Asian"] == "A photo of a East Asian person"


class TestMentionsAttribute:
    @pytest.mark.parametrize(
        "text",
        [
            "a photo of a male nurse",
            "a photo of a FEMALE doctor",
            "a picture of a man",
            "a photo of a woman smiling",
        ],
    )
    def test_explicit_queries_flagged(self, text):
        assert mentions_attribute(text, GENDER)

    @pytest.mark.parametrize(
        "text",
        [
            "a photo of a nurse",
            "a photo of a mailman's truck",  # 'male' only inside another word
            "a photo of a humane person",
            "a photo of a person",  # filler noun must not trigger
        ],
    )
    def test_neutral_queries_pass(self, text):
        assert not mentions_attribute(text, GENDER)


class _AugmentHandler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        values = body["values"]
        if self.behavior == "missing":
            payload = {"augmented": {values[0]: f"{values[0]} :: {body['text']}"}}
        elif self.behavior == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
            return
        else:
            payload = {
                "augmented": {v: f"{v} :: {body['text']}" for v in values}
            }
        blob = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def augment_server():
    server = HTTPServer(("127.0.0.1", 0), _AugmentHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/augment"
    server.shutdown()
    server.server_close()


class TestExternalAugmenter:
    def test_happy_path(self, augment_server):
        _AugmentHandler.behavior = "ok"
        out = external_augmenter("a photo of a vet", GENDER, augment_server)
        assert out.source == "external"
        assert out.per_value_texts == {
            "male": "male :: a photo of a vet",
            "female": "female :: a photo of a vet",
        }

    def test_missing_value_falls_back(self, augment_server):
        _AugmentHandler.behavior = "missing"
        out = external_augmenter("a photo of a vet", GENDER, augment_server)
        assert out.source == "template-fallback"
        assert out.per_value_texts == augment_query("a photo of a vet", GENDER).per_value_texts

    def test_garbage_falls_back_to_templates(self, augment_server):
        _AugmentHandler.behavior = "garbage"
        out = external_augmenter("a photo of a vet", GENDER, augment_server)
        assert out.source == "template-fallback"
        assert out.per_value_texts["male"] == "a photo of a male vet"

    def test_unreachable_falls_back(self):
        out = external_augmenter("a photo of a vet", GENDER, "http://127.0.0.1:1/nope")
        assert out.source == "template-fallback"
