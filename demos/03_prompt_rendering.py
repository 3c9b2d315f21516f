#!/usr/bin/env python3
"""
Rendering presence and intensity prompts
========================================

Every instance becomes one chat prompt. Track A asks a yes/no presence
question; track B asks for an intensity class from 0 to 3. Few-shot
prompts prepend k retrieved training examples, each completed with its
gold answer, and put the unanswered query last.
"""

from pathlib import Path

from emoharness import (
    ColumnSchema,
    EmotionSet,
    RetrievalConfig,
    build_index,
    load_dataset,
    render_few_shot,
    render_zero_shot,
    top_k,
)

DATA = Path(__file__).parent / "data"

emotion_set = EmotionSet.for_language("eng")
query_text = "I feel such joy watching the sunrise"

print("--- track A, zero-shot " + "-" * 40)
print(render_zero_shot("track_a", query_text, "English", "joy", emotion_set=emotion_set))

print("\n--- track B, zero-shot " + "-" * 40)
print(render_zero_shot("track_b", query_text, "English", "joy", emotion_set=emotion_set))

# Few-shot: retrieve the 2 nearest training snippets, pair each with its
# gold label for the queried emotion, then append the query block.
train = load_dataset(DATA / "eng_train.csv", ColumnSchema(), emotion_set, track="A")
index = build_index([(s.id, s.text) for s in train])
neighbours = top_k(index, query_text, RetrievalConfig(k=2))
examples = []
for doc_id, _ in neighbours:
    snippet = next(s for s in train if s.id == doc_id)
    examples.append((snippet.text, snippet.labels["joy"]))

print("\n--- track A, 2-shot " + "-" * 43)
print(render_few_shot(examples, query_text, "English", "joy", emotion_set=emotion_set))
