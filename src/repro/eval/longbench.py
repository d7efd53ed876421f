"""Synthetic LongBench substitute (paper Fig. 6).

LongBench's 16 English tasks cannot be used offline (no datasets, no natural-
language models), so each task is replaced by a synthetic long-context task
of the same *family* that exercises the same attention behaviour: retrieving
facts buried deep in a long context, combining two facts, counting or
identifying passages, copying few-shot label patterns, recovering repeated
"topic" phrases, and continuing structured code-like patterns.  Every task is
expressed directly over token ids (see :mod:`repro.data.longcontext`) and is
scored with the metric family LongBench uses for the corresponding task
(F1 / accuracy / ROUGE-like overlap / edit-style accuracy).

The headline quantity reproduced from Fig. 6 is the per-task score of the
MILLION-4b cache relative to the fp16 cache (the "performance loss" axis).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.data.longcontext import SPECIAL_TOKENS, ContextBuilder, SpecialTokens
from repro.eval.metrics import exact_match, rouge_like_overlap, token_accuracy, token_f1
from repro.models.kv_cache import FullPrecisionCacheFactory, KVCacheFactory
from repro.models.transformer import TransformerLM
from repro.utils.rng import SeedLike, derive_seed, get_rng
from repro.utils.validation import require


@dataclass
class TaskInstance:
    """One generated example: a prompt, its reference answer and metadata."""

    prompt_tokens: np.ndarray
    answer_tokens: np.ndarray
    metadata: dict = field(default_factory=dict)


class TaskGenerator(ABC):
    """Base class for synthetic long-context task generators."""

    #: Scoring metric name, for reporting.
    metric: str = "f1"

    def __init__(
        self,
        name: str,
        category: str,
        context_length: int = 768,
        answer_length: int = 3,
        specials: SpecialTokens = SPECIAL_TOKENS,
    ) -> None:
        require(context_length >= 64, "context_length must be >= 64")
        require(answer_length >= 1, "answer_length must be >= 1")
        self.name = name
        self.category = category
        self.context_length = context_length
        self.answer_length = answer_length
        self.specials = specials

    @abstractmethod
    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        """Create one example for a model with ``vocab_size`` tokens."""

    def score(self, prediction: Sequence[int], instance: TaskInstance) -> float:
        """Score a generated answer in [0, 100] (LongBench convention)."""
        reference = instance.answer_tokens
        if self.metric == "f1":
            return 100.0 * token_f1(prediction, reference)
        if self.metric == "accuracy":
            return 100.0 * exact_match(prediction, reference)
        if self.metric == "rouge":
            return 100.0 * rouge_like_overlap(prediction, reference)
        if self.metric == "edit":
            return 100.0 * token_accuracy(prediction, reference)
        raise ValueError(f"unknown metric {self.metric!r}")

    # Shared helpers -----------------------------------------------------------

    def _builder(self, vocab_size: int, rng: np.random.Generator) -> ContextBuilder:
        return ContextBuilder(vocab_size, seed=rng, specials=self.specials)


class SingleDocQATask(TaskGenerator):
    """A single fact buried in filler; the question asks for its value (F1)."""

    metric = "f1"

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        key = builder.new_key()
        value = builder.new_value(self.answer_length)
        fact_position = rng.uniform(0.15, 0.75)
        before = int(self.context_length * fact_position)
        builder.append_filler(before)
        builder.append_fact(key, value)
        builder.append_filler(max(self.context_length - builder.length - 8, 8))
        builder.append_question(key)
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray(value),
            metadata={"key": key, "depth": fact_position},
        )


class MultiHopQATask(TaskGenerator):
    """Two chained facts (A -> B, B -> value); the question asks about A (F1)."""

    metric = "f1"

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        key_a = builder.new_key()
        key_b = builder.new_key()
        value = builder.new_value(self.answer_length)
        third = max(self.context_length // 3, 16)
        builder.append_filler(third // 2)
        builder.append_fact(key_a, key_b)
        builder.append_filler(third)
        builder.append_fact(key_b, value)
        builder.append_filler(max(self.context_length - builder.length - 8, 8))
        builder.append_question(key_a)
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray(value),
            metadata={"hops": 2},
        )


class SummarizationTask(TaskGenerator):
    """A topic phrase repeated throughout the document must be reproduced (ROUGE)."""

    metric = "rouge"

    def __init__(self, *args, repetitions: int = 6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.repetitions = repetitions

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        topic = builder.new_value(self.answer_length)
        segment = max(self.context_length // (self.repetitions + 1), 16)
        for _ in range(self.repetitions):
            builder.append_filler(segment)
            builder.append(topic, kind="topic")
        builder.append_filler(max(self.context_length - builder.length - 4, 4))
        builder.append_question(np.asarray([self.specials.separator]))
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray(topic),
            metadata={"repetitions": self.repetitions},
        )


class FewShotLabelTask(TaskGenerator):
    """Few-shot classification: copy the label associated with a repeated prompt."""

    metric = "accuracy"

    def __init__(self, *args, n_classes: int = 4, n_shots: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_classes = n_classes
        self.n_shots = n_shots

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        patterns = [builder.new_key(2) for _ in range(self.n_classes)]
        labels = [builder.new_value(1) for _ in range(self.n_classes)]
        filler_per_shot = max(
            (self.context_length - self.n_shots * 8) // max(self.n_shots, 1), 4
        )
        for shot in range(self.n_shots):
            cls = int(rng.integers(self.n_classes))
            builder.append_filler(filler_per_shot)
            builder.append_example(patterns[cls], labels[cls])
        target_cls = int(rng.integers(self.n_classes))
        builder.append_filler(8)
        builder.append_question(patterns[target_cls])
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray(labels[target_cls]),
            metadata={"n_classes": self.n_classes, "target_class": target_cls},
        )


class PassageCountTask(TaskGenerator):
    """Count how many *unique* passages appear (LongBench passage_count)."""

    metric = "accuracy"

    def __init__(self, *args, n_passages: int = 6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_passages = n_passages

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        n_unique = int(rng.integers(2, self.n_passages + 1))
        passage_length = max(self.context_length // (self.n_passages + 1), 16)
        unique_bodies = [
            builder.new_value(passage_length) for _ in range(n_unique)
        ]
        order = [int(rng.integers(n_unique)) for _ in range(self.n_passages)]
        # Guarantee every unique passage appears at least once.
        order[:n_unique] = list(range(n_unique))
        rng.shuffle(order)
        for idx in order:
            builder.append_marker(self.specials.passage_start)
            builder.append(unique_bodies[idx], kind="passage", passage_id=idx)
            builder.append_marker(self.specials.passage_end)
        builder.append_question(np.asarray([self.specials.passage_start]))
        answer_token = self.specials.content_start + n_unique
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray([answer_token]),
            metadata={"n_unique": n_unique, "n_passages": self.n_passages},
        )


class PassageRetrievalTask(TaskGenerator):
    """Identify which passage contains a quoted snippet (passage_retrieval_en)."""

    metric = "accuracy"

    def __init__(self, *args, n_passages: int = 6, snippet_length: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_passages = n_passages
        self.snippet_length = snippet_length

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        passage_length = max(self.context_length // self.n_passages, 32)
        bodies = []
        id_tokens = []
        for index in range(self.n_passages):
            id_token = self.specials.content_start + index
            id_tokens.append(id_token)
            body = builder.new_value(passage_length)
            bodies.append(body)
            builder.append_marker(self.specials.passage_start)
            builder.append(np.asarray([id_token]), kind="passage_id", passage_id=index)
            builder.append(body, kind="passage", passage_id=index)
            builder.append_marker(self.specials.passage_end)
        target = int(rng.integers(self.n_passages))
        start = int(rng.integers(0, max(passage_length - self.snippet_length, 1)))
        snippet = bodies[target][start : start + self.snippet_length]
        builder.append_question(snippet)
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray([id_tokens[target]]),
            metadata={"target_passage": target},
        )


class CodeCompletionTask(TaskGenerator):
    """Continue a rigid line-structured pattern (lcc / repobench-p stand-in)."""

    metric = "edit"

    def __init__(self, *args, line_length: int = 6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.line_length = line_length

    def generate(self, vocab_size: int, rng: np.random.Generator) -> TaskInstance:
        builder = self._builder(vocab_size, rng)
        # A small library of "identifier" lines that repeat in a fixed cycle.
        cycle = [builder.new_value(self.line_length) for _ in range(4)]
        n_lines = max(self.context_length // (self.line_length + 1), 8)
        for line_index in range(n_lines):
            builder.append(cycle[line_index % len(cycle)], kind="code_line")
            builder.append_marker(self.specials.line_break)
        next_line = cycle[n_lines % len(cycle)]
        builder.append_question(np.asarray([self.specials.line_break]))
        return TaskInstance(
            prompt_tokens=builder.tokens(),
            answer_tokens=np.asarray(next_line[: self.answer_length]),
            metadata={"cycle_length": len(cycle)},
        )


def _default_tasks(context_length: int) -> dict[str, TaskGenerator]:
    """The 16 LongBench task names mapped onto the synthetic generators."""
    long = context_length
    short = max(context_length // 2, 256)
    return {
        # Single-document QA
        "narrativeqa": SingleDocQATask("narrativeqa", "single-doc QA", long),
        "qasper": SingleDocQATask("qasper", "single-doc QA", short),
        "multifieldqa_en": SingleDocQATask("multifieldqa_en", "single-doc QA", short),
        # Multi-document QA
        "hotpotqa": MultiHopQATask("hotpotqa", "multi-doc QA", long),
        "2wikimqa": MultiHopQATask("2wikimqa", "multi-doc QA", short),
        "musique": MultiHopQATask("musique", "multi-doc QA", long),
        # Summarisation
        "gov_report": SummarizationTask("gov_report", "summarization", long),
        "qmsum": SummarizationTask("qmsum", "summarization", long),
        "multi_news": SummarizationTask("multi_news", "summarization", short),
        # Few-shot learning
        "trec": FewShotLabelTask("trec", "few-shot", short),
        "triviaqa": FewShotLabelTask("triviaqa", "few-shot", long),
        "samsum": FewShotLabelTask("samsum", "few-shot", short),
        # Synthetic
        "passage_count": PassageCountTask("passage_count", "synthetic", short),
        "passage_retrieval_en": PassageRetrievalTask(
            "passage_retrieval_en", "synthetic", long
        ),
        # Code
        "lcc": CodeCompletionTask("lcc", "code", short),
        "repobench-p": CodeCompletionTask("repobench-p", "code", long),
    }


LONGBENCH_TASK_NAMES = tuple(_default_tasks(768))


def longbench_tasks(context_length: int = 768) -> dict[str, TaskGenerator]:
    """Instantiate the full synthetic LongBench suite."""
    return _default_tasks(context_length)


@dataclass
class TaskResult:
    """Aggregated result of one (task, scheme) pair."""

    task: str
    category: str
    scheme: str
    score: float
    n_examples: int
    scores: list[float] = field(default_factory=list)


def evaluate_task(
    model: TransformerLM,
    generator: TaskGenerator,
    cache_factory: Optional[KVCacheFactory],
    n_examples: int = 3,
    seed: SeedLike = 0,
    scheme_name: str = "baseline",
    max_new_tokens: Optional[int] = None,
) -> TaskResult:
    """Run ``n_examples`` of a task under one cache scheme and average the score."""
    require(n_examples >= 1, "n_examples must be >= 1")
    factory = cache_factory or FullPrecisionCacheFactory()
    scores: list[float] = []
    for example_index in range(n_examples):
        rng = get_rng(derive_seed(seed, generator.name, example_index))
        instance = generator.generate(model.config.vocab_size, rng)
        prompt = instance.prompt_tokens
        budget = model.config.max_seq_len - instance.answer_tokens.size - 2
        if prompt.size > budget:
            prompt = prompt[-budget:]
        model.reset_cache(factory)
        new_tokens = max_new_tokens or int(instance.answer_tokens.size)
        generated = model.generate(prompt, new_tokens, reset=False, seed=0)
        scores.append(generator.score(generated.tolist(), instance))
    return TaskResult(
        task=generator.name,
        category=generator.category,
        scheme=scheme_name,
        score=float(np.mean(scores)),
        n_examples=n_examples,
        scores=scores,
    )


def evaluate_longbench(
    model: TransformerLM,
    scheme_factories: dict[str, Optional[KVCacheFactory]],
    tasks: Optional[dict[str, TaskGenerator]] = None,
    n_examples: int = 3,
    seed: SeedLike = 0,
) -> list[TaskResult]:
    """Fig. 6 driver: every task under every scheme (same examples per scheme)."""
    tasks = tasks or longbench_tasks()
    results: list[TaskResult] = []
    for task_name, generator in tasks.items():
        for scheme_name, factory in scheme_factories.items():
            results.append(
                evaluate_task(
                    model,
                    generator,
                    factory,
                    n_examples=n_examples,
                    seed=seed,
                    scheme_name=scheme_name,
                )
            )
    return results


def average_scores(results: list[TaskResult]) -> dict[str, float]:
    """Mean score per scheme across tasks (the paper's average-loss summary)."""
    by_scheme: dict[str, list[float]] = {}
    for result in results:
        by_scheme.setdefault(result.scheme, []).append(result.score)
    return {scheme: float(np.mean(scores)) for scheme, scores in by_scheme.items()}
